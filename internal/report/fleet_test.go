package report

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"nvramfs/internal/engine"
)

// smallFleetOptions is a grid small enough for the test suite; the full
// default grid runs only under `nvreport -exp fleet`, and the root
// TestFleetHeapBound streams 100k clients through fleet.Run.
func smallFleetOptions() FleetOptions {
	return FleetOptions{
		ClientCounts:  []int{400, 900},
		ShardCounts:   []int{1, 4},
		DurationHours: 2,
		MaxActive:     64,
	}
}

func fleetBytes(t *testing.T, workers int) ([]byte, *FleetResult) {
	t.Helper()
	ws := NewWorkspace(0.2)
	ws.SetEngine(engine.New(workers))
	r, err := FleetWithOptions(context.Background(), ws, smallFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, row := range r.CSV() {
		for _, cell := range row {
			buf.WriteString(cell)
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes(), r
}

func TestFleetGridWorkerInvariance(t *testing.T) {
	seq, a := fleetBytes(t, 1)
	par, b := fleetBytes(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatal("fleet render/CSV differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("fleet rows differ between 1 and 8 workers")
	}
}

func TestFleetGridShape(t *testing.T) {
	_, r := fleetBytes(t, 4)
	opts := smallFleetOptions()
	want := len(opts.ClientCounts) * len(opts.ShardCounts) * len(fleetOrgs())
	if len(r.Rows) != want {
		t.Fatalf("%d rows, want %d", len(r.Rows), want)
	}
	// Grid order: clients, then shards, then organization.
	i := 0
	for _, clients := range opts.ClientCounts {
		for _, shards := range opts.ShardCounts {
			for _, org := range fleetOrgs() {
				row := &r.Rows[i]
				if row.Clients != clients || row.Shards != shards || row.Org != org {
					t.Fatalf("row %d is (%d,%d,%s), want (%d,%d,%s)",
						i, row.Clients, row.Shards, row.Org, clients, shards, org)
				}
				if row.Events == 0 {
					t.Fatalf("row %d simulated no events", i)
				}
				i++
			}
		}
	}
	// The same population at the same shard count sees the same events
	// regardless of server organization.
	for i := 0; i < len(r.Rows); i += 2 {
		if r.Rows[i].Events != r.Rows[i+1].Events {
			t.Fatalf("volatile/nvm rows %d,%d differ in events", i, i+1)
		}
	}
	// CSV header must carry the study's headline columns.
	head := r.CSV()[0]
	want2 := map[string]bool{"msg_imbalance": true, "blk_imbalance": true, "wb_p99_us": true, "storm_p99": true}
	for _, col := range head {
		delete(want2, col)
	}
	if len(want2) != 0 {
		t.Fatalf("CSV header missing columns: %v", want2)
	}
}

func TestFleetInRegistry(t *testing.T) {
	var found bool
	for _, e := range Experiments() {
		if e.Name == "fleet" {
			found = true
			if e.Desc == "" {
				t.Fatal("fleet registry entry has no description")
			}
		}
	}
	if !found {
		t.Fatal("fleet experiment not in the registry")
	}
}
