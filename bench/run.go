package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// run is what one workload run is given.
type run struct {
	root    string // checkout root
	build   string // .bench_build under it: binaries and daemon state
	seed    int64
	seconds int
	tr      *tracer // nil when tracing is off
	logf    func(format string, args ...any)
}

// metric is one reported number. Spread is the quartile distance of the
// N segment values as a share of their median.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	N      int     `json:"n,omitempty"`
}

// result is one workload's outcome, as written to the -out file.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted_ops"`
	Failed    int64  `json:"failed_ops"`
	// SimDigest is the SHA-256 of the rendered sweep output: a speed-up
	// must not move a simulated statistic.
	SimDigest string `json:"sim_digest,omitempty"`
	// InputDigest is the SHA-256 of the generated event stream.
	InputDigest string `json:"input_digest,omitempty"`
	// Counts repeat exactly for one seed; -compare requires them equal.
	Counts  map[string]int64  `json:"counts,omitempty"`
	Metrics map[string]metric `json:"metrics"`
	// Diagnostics are the untraced run's side numbers (Stats frame,
	// generator lateness); they vary and carry no bound.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
}

func newResult(name string) *result {
	return &result{
		Workload:    name,
		Correct:     true,
		Counts:      map[string]int64{},
		Metrics:     map[string]metric{},
		Diagnostics: map[string]float64{},
	}
}

// fail records a failed correctness check; the command then exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setSummary(name, unit string, s summary) {
	r.Metrics[name] = metric{Value: s.Median, Unit: unit, Spread: s.Spread, N: s.N}
}

// setupRounds is how often a run sets up: setup_s is the median, so one
// slow process start does not decide it.
const setupRounds = 5

// timeSetup runs prepare setupRounds times, discards what every round
// but the last made, and returns the last round's.
func timeSetup[T any](r *result, prepare func() (T, error), discard func(T)) (T, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			discard(out)
		}
		t0 := time.Now()
		v, err := prepare()
		if err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	r.setSummary("setup_s", "s", summarize(times))
	return out, nil
}

// buildDaemon builds nvramd from the tree into the build directory and
// records how long that took. It is not part of setup_s: after a
// checkout's first build the go command's cache answers, and what is
// left is a link whose time depends on the disk.
func (c *run) buildDaemon(r *result) (string, error) {
	bin := filepath.Join(c.build, "nvramd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nvramd")
	cmd.Dir = c.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/nvramd: %w\n%s", err, out)
	}
	r.Diagnostics["build_s"] = time.Since(t0).Seconds()
	return bin, nil
}

// stateBase is where daemon state directories go.
func (c *run) stateBase() string { return filepath.Join(c.build, "tmp") }

// mixStream generates the first n events of the trace-7 mix with the
// run's seed, lengthening the simulated day until there are enough.
func mixStream(seed int64, n int) ([]trace.Event, error) {
	for days := 1; days <= 1024; days *= 2 {
		p := workload.StandardProfile(7, 1.0)
		p.Seed = seed
		p.Duration = time.Duration(days) * 24 * time.Hour
		cur := workload.NewCursor(p)
		events := make([]trace.Event, 0, n)
		for len(events) < n {
			e, ok, err := cur.Next()
			if err != nil {
				return nil, fmt.Errorf("generating the mix stream: %w", err)
			}
			if !ok {
				break
			}
			events = append(events, e)
		}
		if len(events) == n {
			return events, nil
		}
	}
	return nil, fmt.Errorf("the trace-7 profile does not yield %d events", n)
}

// Park-stream shape: four clients each append 4 KiB blocks to a private
// file. The footprint is far beyond the 1 MiB NVRAM, so once a client's
// NVRAM is full every write evicts one dirty block — one stable delivery,
// one parked record.
const (
	parkClients   = 4
	parkBlock     = 4096
	parkNVRAMMB   = 1
	parkWarmBlock = parkNVRAMMB << 20 / parkBlock // writes per client before its NVRAM is full
)

// parkStream is n sequential block writes (after one open per client);
// the seed decides the order the clients take turns in.
func parkStream(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	fileBase := uint64(seed&0xffff)<<16 + 1
	events := make([]trace.Event, 0, n+parkClients)
	for c := 0; c < parkClients; c++ {
		events = append(events, trace.Event{
			Client: uint32(c + 1), Op: trace.OpOpen, File: fileBase + uint64(c), Flags: trace.FlagWrite,
		})
	}
	next := make([]int64, parkClients)
	turn := rng.Perm(parkClients)
	for i := 0; i < n; i++ {
		if i%parkClients == 0 {
			turn = rng.Perm(parkClients)
		}
		c := turn[i%parkClients]
		events = append(events, trace.Event{
			Client: uint32(c + 1), Op: trace.OpWrite, File: fileBase + uint64(c),
			Offset: next[c] * parkBlock, Length: parkBlock,
		})
		next[c]++
	}
	return events
}

// streamDigest hashes the wire encoding of the events: the same seed
// must give the same inputs.
func streamDigest(parts [][]trace.Event) string {
	h := sha256.New()
	var buf []byte
	for _, part := range parts {
		for _, e := range part {
			buf = trace.AppendEvent(buf[:0], e)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evenParts partitions by client and trims every connection to the same
// count, so the connections finish together and the total is exact.
func evenParts(events []trace.Event, conns, perConn int) ([][]trace.Event, error) {
	parts := partitionByClient(events, conns)
	for i := range parts {
		if len(parts[i]) < perConn {
			return nil, fmt.Errorf("connection %d got %d of the %d events it needs", i, len(parts[i]), perConn)
		}
		parts[i] = parts[i][:perConn]
	}
	return parts, nil
}

// unit returns a value in [0,1) fixed by the seed (splitmix64), used to
// vary a sweep's size a little from seed to seed.
func unit(seed int64) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// requireCPUs refuses to generate load from more connections or workers
// than the machine has CPUs: the generator would then be measuring itself.
func requireCPUs(ncpu int) error {
	if loadConns > ncpu || engineWorkers > ncpu {
		return fmt.Errorf("%d connections and %d engine workers need as many CPUs; this machine has %d",
			loadConns, engineWorkers, ncpu)
	}
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
