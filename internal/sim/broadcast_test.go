package sim

import (
	"reflect"
	"slices"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
)

// broadcastConfigs is a spread of NVRAM sizes, models, and policies the
// equivalence tests sweep.
func broadcastConfigs(sched cache.Schedule, writesOnly bool) []Config {
	var cfgs []Config
	for _, nv := range []int{1, 8, 64, 512} {
		cfg := Config{
			Model: cache.ModelUnified,
			Cache: cache.Config{
				VolatileBlocks: 128,
				NVRAMBlocks:    nv,
				Policy:         cache.LRU,
			},
			Seed:       42,
			WritesOnly: writesOnly,
		}
		if sched != nil {
			cfg.Cache.Policy = cache.Omniscient
			cfg.Cache.Schedule = sched
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// volatileConfigs is a spread of volatile cache sizes under LRU: the
// all-volatile set a Broadcast accepts.
func volatileConfigs() []Config {
	var cfgs []Config
	for _, vol := range []int{8, 64, 128, 512} {
		cfgs = append(cfgs, Config{
			Model: cache.ModelVolatile,
			Cache: cache.Config{VolatileBlocks: vol, Policy: cache.LRU},
			Seed:  42,
		})
	}
	return cfgs
}

// withPolicy returns cfgs switched to the given replacement policy.
func withPolicy(cfgs []Config, kind cache.PolicyKind) []Config {
	out := slices.Clone(cfgs)
	for i := range out {
		out[i].Cache.Policy = kind
	}
	return out
}

// capacityConfigs returns one model's configs at the given (volatile,
// NVRAM) block counts, under LRU.
func capacityConfigs(model cache.ModelKind, caps ...[2]int) []Config {
	var cfgs []Config
	for _, c := range caps {
		cfgs = append(cfgs, Config{
			Model: model,
			Cache: cache.Config{VolatileBlocks: c[0], NVRAMBlocks: c[1], Policy: cache.LRU},
			Seed:  42,
		})
	}
	return cfgs
}

// withFsyncHandoff appends to a trace a file that one client writes and
// fsyncs and another client then opens. The generated traces never open an
// fsynced file from another client before its writer touches it again, so
// without this tail the volatile model's Fsync call on the server would
// change no result (the open recalls only if the call was skipped).
func withFsyncHandoff(ops []prep.Op) []prep.Op {
	last := ops[len(ops)-1]
	var file uint64
	for _, op := range ops {
		file = max(file, op.File)
	}
	file++
	t := last.Time + 1_000_000
	return append(slices.Clip(ops),
		openOp(t, 1, file, true),
		prep.Op{Time: t + 1, Client: 1, Kind: prep.Write, File: file, Range: interval.Range{End: 4096}},
		prep.Op{Time: t + 2, Client: 1, Kind: prep.Fsync, File: file},
		prep.Op{Time: t + 3, Client: 1, Kind: prep.Close, File: file},
		openOp(t+4, 2, file, false),
		prep.Op{Time: t + 5, Client: 2, Kind: prep.Close, File: file},
	)
}

// runBroadcast drives ops through a Broadcast of cfgs.
func runBroadcast(t testing.TB, ops []prep.Op, cfgs []Config) []*Result {
	t.Helper()
	bc, err := NewBroadcast(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := bc.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	return bc.Finish()
}

// TestBroadcastMatchesIndependentRuns holds a Broadcast row equal to
// independent sim.Run passes, configuration by configuration, across
// models (an all-volatile set included), policies, and both WritesOnly
// settings, on a trace with every op kind (writes, reads, deletes, fsyncs,
// migrations, shared files).
func TestBroadcastMatchesIndependentRuns(t *testing.T) {
	ops := withFsyncHandoff(traceOps(t, 7, 0.02))
	sched, err := lifetime.BuildSchedule(prep.NewSliceSource(ops), cache.DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfgs []Config
	}{
		{"lru", broadcastConfigs(nil, false)},
		{"lru-writes-only", broadcastConfigs(nil, true)},
		{"omniscient-writes-only", broadcastConfigs(sched, true)},
		{"volatile-lru", volatileConfigs()},
		{"random", withPolicy(broadcastConfigs(nil, false), cache.Random)},
		{"write-aside", capacityConfigs(cache.ModelWriteAside, [2]int{128, 1}, [2]int{128, 8}, [2]int{128, 64}, [2]int{128, 512})},
		// Figure 6's shape: two volatile base sizes, each with added NVRAM.
		{"unified-two-volatile", capacityConfigs(cache.ModelUnified, [2]int{64, 8}, [2]int{64, 64}, [2]int{128, 8}, [2]int{128, 64})},
		{"duplicated", capacityConfigs(cache.ModelUnified, [2]int{128, 8}, [2]int{128, 64}, [2]int{128, 8})},
		// A 1-block NVRAM fills on the first write.
		{"one-block-nvram", capacityConfigs(cache.ModelUnified, [2]int{1, 1}, [2]int{128, 1}, [2]int{128, 2})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runBroadcast(t, ops, tc.cfgs)
			for i, cfg := range tc.cfgs {
				want, err := Run(prep.NewSliceSource(ops), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("config %d (vol=%d nv=%d): broadcast result diverges\n got %+v\nwant %+v",
						i, cfg.Cache.VolatileBlocks, cfg.Cache.NVRAMBlocks, got[i], want)
				}
			}
		})
	}
}

// TestBroadcastMatchesHybridModel covers the remaining broadcast-eligible
// model kinds.
func TestBroadcastMatchesHybridModel(t *testing.T) {
	ops := traceOps(t, 2, 0.02)
	for _, model := range []cache.ModelKind{cache.ModelWriteAside, cache.ModelHybrid} {
		cfgs := []Config{
			{Model: model, Cache: cache.Config{VolatileBlocks: 64, NVRAMBlocks: 16, Policy: cache.LRU}, Seed: 9},
			{Model: model, Cache: cache.Config{VolatileBlocks: 256, NVRAMBlocks: 128, Policy: cache.LRU}, Seed: 9},
		}
		got := runBroadcast(t, ops, cfgs)
		for i, cfg := range cfgs {
			want, err := Run(prep.NewSliceSource(ops), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%v config %d: broadcast result diverges", model, i)
			}
		}
	}
}

// TestBroadcastRejectsUnsupported checks the validation gates: fault
// injection and cache hooks are accepted for one cell and rejected for
// more.
func TestBroadcastRejectsUnsupported(t *testing.T) {
	uni := Config{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 8, NVRAMBlocks: 8}}
	faulty := func() Config { c := uni; c.Faults = &faults.Profile{Seed: 1}; return c }()
	hooked := func() Config { c := uni; c.Cache.Hooks = &cache.ServerHooks{}; return c }()
	bad := map[string][]Config{
		"no configurations": nil,
		"mixed volatile and unified models": {
			{Model: cache.ModelVolatile, Cache: cache.Config{VolatileBlocks: 8}}, uni,
		},
		"fault injection":  {faulty, faulty},
		"mixed WritesOnly": {uni, func() Config { c := uni; c.WritesOnly = true; return c }()},
		"mixed seeds":      {uni, func() Config { c := uni; c.Seed = 2; return c }()},
		"cache hooks":      {hooked, hooked},
	}
	for name, cfgs := range bad {
		if _, err := NewBroadcast(cfgs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for name, cfg := range map[string]Config{"fault injection": faulty, "cache hooks": hooked} {
		if _, err := NewBroadcast([]Config{cfg}); err != nil {
			t.Errorf("one cell with %s rejected: %v", name, err)
		}
	}
}

// TestWholeFileDeleteDropsFileState: the per-file size and touched-client
// bookkeeping goes with the file, so a long trace's working set of dead
// files costs no memory; a truncating delete keeps it.
func TestWholeFileDeleteDropsFileState(t *testing.T) {
	bc, err := NewBroadcast(capacityConfigs(cache.ModelVolatile, [2]int{8, 0}, [2]int{16, 0}))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []prep.Op{
		openOp(0, 1, 5, true),
		wop(1, 1, prep.Write, 5, 0, 8192),
		wop(2, 70, prep.Read, 5, 0, 100), // a client id above the bitmask
		wop(3, 1, prep.DeleteRange, 5, 4096, 8192),
	} {
		if err := bc.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if fs, ok := bc.files[5]; !ok || fs.size != 4096 || !fs.touched.has(1) || !fs.touched.has(70) {
		t.Fatalf("after a truncating delete: %+v, %v", fs, ok)
	}
	if err := bc.Apply(wop(4, 1, prep.DeleteRange, 5, 0, 4096)); err != nil {
		t.Fatal(err)
	}
	if fs, ok := bc.files[5]; ok {
		t.Fatalf("whole-file delete left %+v", fs)
	}
	bc.Finish()
	bc.Release()
}
