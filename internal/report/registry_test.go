package report

import (
	"io"
	"testing"
)

// TestRegistryResultShapes checks, without running any experiment, the
// two rules nvreport relies on: a titled entry's result can plot itself,
// and an entry whose result is Tabular names its CSV file (and only such
// an entry does). results names each entry's result type by a zero value,
// so a new registry entry must be added to it.
func TestRegistryResultShapes(t *testing.T) {
	results := map[string]Result{
		"table1":      renderFunc(nil),
		"fig2":        (*Figure2Result)(nil),
		"table2":      (*Table2Result)(nil),
		"fig3":        (*PolicySweepResult)(nil),
		"fig4":        (*PolicySweepResult)(nil),
		"fig5":        (*ModelCompareResult)(nil),
		"fig6":        (*ModelCompareResult)(nil),
		"bus":         (*BusResult)(nil),
		"cost":        (*CostStudyResult)(nil),
		"table3":      serverTable{},
		"table4":      serverTable{},
		"buffer":      serverTable{},
		"sort":        (*SortedBufferResult)(nil),
		"servercache": (*ServerCacheResult)(nil),
		"fsynclat":    (*LatencyResult)(nil),
		"readlat":     (*ReadResponseResult)(nil),
		"stack":       (*StackResult)(nil),
		"ablate":      (*AblationResult)(nil),
		"reliability": (*ReliabilityResult)(nil),
		"degraded":    (*DegradedResult)(nil),
		"fleet":       (*FleetResult)(nil),
	}
	type plotter interface {
		Plot(w io.Writer, title string) error
	}
	entries := Experiments()
	if len(entries) != len(results) {
		t.Errorf("registry has %d entries, the result table %d", len(entries), len(results))
	}
	for _, e := range entries {
		r, ok := results[e.Name]
		if !ok {
			t.Errorf("registry entry %s has no result type in the table", e.Name)
			continue
		}
		if _, ok := r.(plotter); e.Title != "" && !ok {
			t.Errorf("%s has chart title %q but %T has no Plot", e.Name, e.Title, r)
		}
		if _, ok := r.(Tabular); ok != (e.CSV != "") {
			t.Errorf("%s: %T Tabular=%v but CSV name %q", e.Name, r, ok, e.CSV)
		}
	}
}
