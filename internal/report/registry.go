package report

import (
	"context"
	"io"
	"time"
)

// Experiment is one nvreport experiment. The registry below is the single
// source of truth for what experiments exist and how each runs:
// cmd/nvreport builds its usage text and its -exp validation from it and
// runs the selected entries in registry order.
type Experiment struct {
	Name string
	Desc string
	// Run computes the experiment over the session's shared state.
	Run func(ctx context.Context, s *Session) (Result, error)
	// Title heads the result's ASCII chart; empty for experiments that are
	// not plotted. A titled entry's result has a Plot(w, title) method.
	Title string
	// CSV is the base name of the file a Tabular result's rows go to.
	// Entries that render one shared result share its file.
	CSV string
}

// Result is an experiment's outcome, rendered as text.
type Result interface{ Render(io.Writer) error }

// Session is the state one report run shares between experiments: the
// workspace the client studies read (whose engine also runs the server
// studies), the server studies' simulated duration, and the one server
// study that Tables 3-4 and the buffer table render. A session is used by
// one goroutine at a time.
type Session struct {
	Workspace      *Workspace
	ServerDuration time.Duration

	server *ServerStudyResult
}

// serverStudy returns the session's server study, running it on first use.
func (s *Session) serverStudy(ctx context.Context) (*ServerStudyResult, error) {
	if s.server == nil {
		r, err := ServerStudyContext(ctx, s.Workspace.Engine(), s.ServerDuration)
		if err != nil {
			return nil, err
		}
		s.server = r
	}
	return s.server, nil
}

// renderFunc adapts a render method to Result.
type renderFunc func(io.Writer) error

func (f renderFunc) Render(w io.Writer) error { return f(w) }

// serverTable renders one table of the server study; its CSV rows are the
// whole study's.
type serverTable struct {
	*ServerStudyResult
	render func(*ServerStudyResult, io.Writer) error
}

func (t serverTable) Render(w io.Writer) error { return t.render(t.ServerStudyResult, w) }

// result converts a driver's return to Run's, keeping a failed run's
// result a nil interface.
func result[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// onWorkspace adapts a workspace driver to Experiment.Run.
func onWorkspace[R Result](driver func(context.Context, *Workspace) (R, error)) func(context.Context, *Session) (Result, error) {
	return func(ctx context.Context, s *Session) (Result, error) { return result(driver(ctx, s.Workspace)) }
}

// serverStudyTable runs an entry that renders one table of the session's
// server study.
func serverStudyTable(render func(*ServerStudyResult, io.Writer) error) func(context.Context, *Session) (Result, error) {
	return func(ctx context.Context, s *Session) (Result, error) {
		r, err := s.serverStudy(ctx)
		if err != nil {
			return nil, err
		}
		return serverTable{r, render}, nil
	}
}

// Experiments returns the registry in report order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Desc: "1992 NVRAM component costs (list prices, lots of 5000+)",
			Run: func(context.Context, *Session) (Result, error) { return renderFunc(RenderTable1), nil }},
		{Name: "fig2", Desc: "net write traffic (%) vs write-back delay (minutes), infinite cache",
			Run: onWorkspace(Figure2Context), CSV: "fig2",
			Title: "Figure 2: net write traffic (%) vs write-back delay (min, log)"},
		{Name: "table2", Desc: "fate of all bytes written into an infinite non-volatile cache",
			Run: onWorkspace(Table2Context), CSV: "table2"},
		{Name: "fig3", Desc: "write traffic vs cache size, omniscient policy, all traces",
			Run: onWorkspace(Figure3Context), CSV: "fig3"},
		{Name: "fig4", Desc: "write traffic vs replacement policy (trace 7)",
			Run: onWorkspace(Figure4Context), CSV: "fig4",
			Title: "Figure 4: replacement policies (trace 7)"},
		{Name: "fig5", Desc: "write traffic across cache organizations (trace 7)",
			Run: onWorkspace(Figure5Context), CSV: "fig5",
			Title: "Figure 5: cache models (trace 7)"},
		{Name: "fig6", Desc: "volatile vs unified caches at 8/16 MB base sizes",
			Run: onWorkspace(Figure6Context), CSV: "fig6",
			Title: "Figure 6: volatile vs unified (8/16 MB bases)"},
		{Name: "bus", Desc: "client bus traffic, section 2.6",
			Run: onWorkspace(BusTrafficContext)},
		{Name: "cost", Desc: "cost-effectiveness of NVRAM options, section 2.7",
			Run: func(ctx context.Context, s *Session) (Result, error) {
				// Figure 6's cells are memoized: after fig6 this
				// simulates nothing.
				fig6, err := Figure6Context(ctx, s.Workspace)
				if err != nil {
					return nil, err
				}
				return CostStudy(fig6), nil
			},
			CSV: "cost"},
		{Name: "table3", Desc: "forced partial segments per LFS file system",
			Run: serverStudyTable((*ServerStudyResult).RenderTable3),
			CSV: "server_study"},
		{Name: "table4", Desc: "partial-segment sizes and fsync traffic",
			Run: serverStudyTable((*ServerStudyResult).RenderTable4),
			CSV: "server_study"},
		{Name: "buffer", Desc: "server NVRAM write-buffer study, section 3",
			Run: serverStudyTable((*ServerStudyResult).RenderBuffer),
			CSV: "server_study"},
		{Name: "sort", Desc: "buffered+sorted disk writes, reference [20]",
			Run: func(context.Context, *Session) (Result, error) { return SortedBuffer(), nil },
			CSV: "sort"},
		{Name: "servercache", Desc: "server NVRAM cache organizations, section 3 remark",
			Run: func(ctx context.Context, s *Session) (Result, error) {
				return result(ServerCacheStudyContext(ctx, s.Workspace.Engine(), s.ServerDuration))
			},
			CSV: "servercache"},
		{Name: "fsynclat", Desc: "fsync latency distribution per organization (extension)",
			Run: onWorkspace(FsyncLatencyStudyContext), CSV: "fsynclat"},
		{Name: "readlat", Desc: "read response vs write buffering, reference [3]",
			Run: func(context.Context, *Session) (Result, error) { return ReadResponseStudy(), nil },
			CSV: "readlat"},
		{Name: "stack", Desc: "end-to-end client+server pipeline (extension)",
			Run: onWorkspace(StackStudyContext), CSV: "stack"},
		{Name: "ablate", Desc: "design-choice ablations",
			Run: onWorkspace(AblationsContext)},
		{Name: "reliability", Desc: "crash injection against the replay oracle (extension)",
			Run: onWorkspace(ReliabilityContext), CSV: "reliability"},
		{Name: "degraded", Desc: "fault-injected write-back and graceful degradation (extension)",
			Run: onWorkspace(DegradedContext), CSV: "degraded"},
	}
}
