package nvramfs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestStandardTraceAndRunCache(t *testing.T) {
	tr, err := StandardTrace(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "trace1" || tr.Stats().BytesWritten == 0 {
		t.Fatalf("trace: %s %+v", tr.Name, tr.Stats())
	}
	for _, model := range []string{"volatile", "write-aside", "unified"} {
		res, err := tr.RunCache(CacheConfig{Model: model, VolatileMB: 8, NVRAMMB: 1})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if res.Traffic.AppWriteBytes != tr.Stats().BytesWritten {
			t.Fatalf("%s: app writes %d != trace writes %d", model,
				res.Traffic.AppWriteBytes, tr.Stats().BytesWritten)
		}
	}
}

func TestRunCachePolicies(t *testing.T) {
	tr, err := StandardTrace(2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"lru", "random", "omniscient"} {
		if _, err := tr.RunCache(CacheConfig{Model: "unified", Policy: pol, VolatileMB: 4, NVRAMMB: 0.5}); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
	if _, err := tr.RunCache(CacheConfig{Model: "bogus"}); err == nil {
		t.Fatal("bogus model accepted")
	}
	if _, err := tr.RunCache(CacheConfig{Model: "unified", Policy: "bogus", VolatileMB: 4, NVRAMMB: 1}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteStandardTrace(&buf, 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events written")
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := StandardTrace(5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats() != direct.Stats() {
		t.Fatalf("file trace stats %+v != direct %+v", tr.Stats(), direct.Stats())
	}
}

func TestAnalyzeFacade(t *testing.T) {
	tr, err := StandardTrace(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	an, err := tr.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if an.Fate.Total != tr.Stats().BytesWritten {
		t.Fatal("fate total mismatch")
	}
}

func TestRunServerFacade(t *testing.T) {
	res, err := RunServer("/user6", 2*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fsyncs == 0 || res.DiskWrites == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if _, err := RunServer("/missing", time.Hour, 0); err == nil {
		t.Fatal("unknown file system accepted")
	}
	if len(ServerFileSystems()) != 8 {
		t.Fatal("file system list wrong")
	}
}

func TestStandardTraceValidation(t *testing.T) {
	if _, err := StandardTrace(0, 1); err == nil {
		t.Fatal("trace 0 accepted")
	}
	if _, err := StandardTrace(9, 1); err == nil {
		t.Fatal("trace 9 accepted")
	}
	var buf bytes.Buffer
	if _, err := WriteStandardTrace(&buf, 0, 1); err == nil {
		t.Fatal("write of trace 0 accepted")
	}
}

// TestModelOrderingInvariants checks the paper's qualitative ordering on a
// generated trace: adding NVRAM to the baseline can only reduce write
// traffic, and the unified model's total traffic beats write-aside's given
// the same memories (it serves reads from the NVRAM too).
func TestModelOrderingInvariants(t *testing.T) {
	tr, err := StandardTrace(2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	run := func(model string, volMB, nvMB float64) *CacheResult {
		res, err := tr.RunCache(CacheConfig{Model: model, VolatileMB: volMB, NVRAMMB: nvMB})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		return res
	}
	base := run("volatile", 8, 0)
	uni := run("unified", 8, 2)
	wa := run("write-aside", 8, 2)
	hyb := run("hybrid", 8, 2)

	if uni.Traffic.NetWriteFrac() > base.Traffic.NetWriteFrac() {
		t.Errorf("unified write traffic %.3f exceeds baseline %.3f",
			uni.Traffic.NetWriteFrac(), base.Traffic.NetWriteFrac())
	}
	if wa.Traffic.NetWriteFrac() > base.Traffic.NetWriteFrac() {
		t.Errorf("write-aside write traffic %.3f exceeds baseline %.3f",
			wa.Traffic.NetWriteFrac(), base.Traffic.NetWriteFrac())
	}
	if uni.Traffic.NetTotalFrac() > wa.Traffic.NetTotalFrac()+0.02 {
		t.Errorf("unified total %.3f worse than write-aside %.3f",
			uni.Traffic.NetTotalFrac(), wa.Traffic.NetTotalFrac())
	}
	// The hybrid never exposes more than it writes and its NVRAM share is
	// protected.
	if hyb.Traffic.VulnerableWriteBytes > hyb.Traffic.AppWriteBytes {
		t.Error("hybrid vulnerable bytes exceed app writes")
	}
}

// TestCacheRunDeterminism: identical configurations produce identical
// traffic, including the random policy (seeded).
func TestCacheRunDeterminism(t *testing.T) {
	tr, err := StandardTrace(6, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CacheConfig{Model: "unified", Policy: "random", VolatileMB: 4, NVRAMMB: 0.5, Seed: 11}
	a, err := tr.RunCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.RunCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traffic != b.Traffic {
		t.Fatal("same configuration produced different traffic")
	}
}

// TestServerDeterminism: the server study is reproducible too.
func TestServerDeterminism(t *testing.T) {
	a, err := RunServer("/user1", 6*time.Hour, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServer("/user1", 6*time.Hour, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.DiskWrites != b.DiskWrites {
		t.Fatal("server runs differ")
	}
}

// TestConservationAcrossModels: application bytes are conserved — server
// writes plus absorbed bytes plus still-cached-at-end equals... since the
// end-of-trace flush counts remaining as traffic, server writes + absorbed
// must equal application writes exactly for NVRAM models (no cleaner
// duplication: each dirty byte is flushed or dies exactly once).
func TestConservationAcrossModels(t *testing.T) {
	tr, err := StandardTrace(5, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"unified", "write-aside"} {
		res, err := tr.RunCache(CacheConfig{Model: model, VolatileMB: 8, NVRAMMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Traffic
		got := tr.ServerWriteBytes() + tr.AbsorbedBytes()
		if got != tr.AppWriteBytes {
			t.Errorf("%s: server+absorbed = %d, app writes = %d", model, got, tr.AppWriteBytes)
		}
	}
}

// TestFacadeExperiments exercises every per-experiment driver the facade
// exports at tiny scale, verifying they are wired.
func TestFacadeExperiments(t *testing.T) {
	ws := NewWorkspace(0.02)
	if _, err := Figure2Context(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2Context(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure3Context(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure4Context(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure5Context(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	fig6, err := Figure6Context(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServerStudyContext(context.Background(), NewEngine(0), 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, fig6); err != nil {
		t.Fatal(err)
	}
}

func TestCustomTraceFacade(t *testing.T) {
	config := `{"name": "custom", "seed": 3, "duration_hours": 1, "scale": 0.1,
		"actors": [{"kind": "editor", "client": 1}, {"kind": "log", "client": 2}]}`
	tr, err := CustomTrace(strings.NewReader(config))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "custom" || tr.Stats().BytesWritten == 0 {
		t.Fatalf("custom trace: %+v", tr.Stats())
	}
	var buf bytes.Buffer
	n, err := WriteCustomTrace(&buf, strings.NewReader(config))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events written")
	}
	var dump bytes.Buffer
	if err := DumpTrace(&dump, bytes.NewReader(buf.Bytes()), 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "custom") {
		t.Fatal("dump missing header")
	}
	if _, err := CustomTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewRecoverableFS(-1); err == nil {
		t.Fatal("negative buffer accepted")
	}
}

func TestWorkloadTemplateRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WorkloadTemplate(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := CustomTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("template does not round-trip: %v", err)
	}
	if tr.Name != "trace1" {
		t.Fatalf("template trace name %q", tr.Name)
	}
}
