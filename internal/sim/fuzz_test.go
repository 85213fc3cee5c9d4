package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
)

// fuzzBlockSize keeps the fuzzed caches a handful of blocks wide.
const fuzzBlockSize = 256

// decodeBroadcastCase turns fuzz bytes into a Broadcast's cells and an op
// stream. Byte 0 picks the model and policy, byte 1 the number of cells
// (2–5) and WritesOnly, or with bit 6 set a single cell with a fault
// profile that the next three bytes give (drop, ack-loss and shed; an
// outage's start; its length). Then two bytes per cell give its volatile
// and NVRAM blocks, and every three further bytes give one op: its kind,
// client (1 or 2) and file, a byte range, and a time step of up to a
// minute, so the volatile models' 30 s write-back fires.
func decodeBroadcastCase(data []byte) ([]Config, []prep.Op, bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	model := cache.ModelKind(data[0] % 4)
	policy := cache.PolicyKind(data[0] / 4 % 3)
	if model == cache.ModelVolatile {
		policy = cache.LRU
	}
	n, writesOnly := 2+int(data[1]%4), data[1]&0x80 != 0
	oneCell := data[1]&0x40 != 0
	data = data[2:]
	var prof *faults.Profile
	if oneCell {
		if len(data) < 3 {
			return nil, nil, false
		}
		start := int64(data[1]) * 4_000_000
		prof = &faults.Profile{
			Seed:        1,
			DropRate:    float64(data[0]%8) / 10,
			AckLossRate: float64(data[0]>>3%5) / 4,
			Shed:        data[0]&0x80 != 0,
			Outages:     []faults.Window{{Start: start, End: start + (1+int64(data[2]))*1_000_000}},
		}
		n, data = 1, data[3:]
	}
	if len(data) < 2*n {
		return nil, nil, false
	}
	minVol := 0 // unified and hybrid allow no volatile memory
	if model == cache.ModelVolatile || model == cache.ModelWriteAside {
		minVol = 1
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			Model: model,
			Cache: cache.Config{
				BlockSize:      fuzzBlockSize,
				VolatileBlocks: minVol + int(data[2*i]%9),
				NVRAMBlocks:    1 + int(data[2*i+1]%8),
				Policy:         policy,
			},
			Seed:       42,
			WritesOnly: writesOnly,
			Faults:     prof,
		}
	}
	data = data[2*n:]
	var ops []prep.Op
	var t int64
	for ; len(data) >= 3 && len(ops) < 300; data = data[3:] {
		k, x, y := data[0], data[1], data[2]
		t += 1 + int64(y>>4)*4_000_000
		op := prep.Op{Time: t, Client: 1 + uint32(k>>3&1), File: 1 + uint64(k>>4&3)}
		r := interval.Range{Start: int64(x) * 64, End: int64(x)*64 + 1 + int64(y&0xF)*128}
		switch k % 8 {
		case 0, 1:
			op.Kind, op.WriteMode = prep.Open, k%8 == 1
		case 2:
			op.Kind = prep.Close
		case 3:
			op.Kind, op.Range = prep.Write, r
		case 4:
			op.Kind, op.Range = prep.Read, r
		case 5:
			op.Kind, op.Range = prep.DeleteRange, r
			if x == 0 {
				op.Range.End = 1 << 20 // the whole file
			}
		case 6:
			op.Kind = prep.Fsync
		case 7:
			op.Kind = prep.MigrateFlush
		}
		ops = append(ops, op)
	}
	if policy == cache.Omniscient {
		sched, err := lifetime.BuildSchedule(prep.NewSliceSource(ops), fuzzBlockSize)
		if err != nil {
			return nil, nil, false
		}
		for i := range cfgs {
			cfgs[i].Cache.Schedule = sched
		}
	}
	return cfgs, ops, true
}

// FuzzBroadcastMatchesRuns requires every cell of a Broadcast to end
// exactly where an independent Run of its configuration does, for fuzzed
// models, policies, capacities and op streams. A single-cell case runs the
// way the live daemon does, with cache hooks and a fault stage, and must
// conserve its write-back bytes instead (checkOneCell). The seed corpus
// covers every model and policy, with and without faults, and runs in
// every go test.
func FuzzBroadcastMatchesRuns(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var heads [][]byte
	for head := range 12 {
		data := make([]byte, 2+10+3*150)
		rng.Read(data)
		data[0], data[1] = byte(head), byte(head)|byte(head%2)<<7
		f.Add(data)
		heads = append(heads, data)
	}
	// Unified, LRU, cells (2, 4) and (5, 4): client 1 writes four blocks
	// of file 1 one at a time and reads one of file 2, then client 2's
	// open recalls file 1, whose flush moves the four NVRAM blocks into
	// the volatile cache shared by capacities 2 and 5.
	f.Add([]byte{2, 0, 2, 3, 5, 3, 3, 0, 1, 3, 4, 1, 3, 8, 1, 3, 12, 1, 20, 0, 1, 8, 0, 0})
	// The same random streams as single cells with hooks and faults.
	for _, data := range heads {
		data = slices.Clone(data)
		data[1] |= 0x40
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs, ops, ok := decodeBroadcastCase(data)
		if !ok {
			return
		}
		if len(cfgs) == 1 {
			checkOneCell(t, ops, cfgs[0])
			return
		}
		got := runBroadcast(t, ops, cfgs)
		for i, cfg := range cfgs {
			want, err := Run(prep.NewSliceSource(ops), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("cell %d (%v %v vol=%d nv=%d): broadcast diverges\n got %+v\nwant %+v",
					i, cfg.Model, cfg.Cache.Policy, cfg.Cache.VolatileBlocks, cfg.Cache.NVRAMBlocks, got[i], want)
			}
		}
	})
}

// checkOneCell runs a single cell with recording cache hooks and a fault
// stage, and checks that every byte the caches write back is offered to
// the stage, that every offered byte is committed, shed or still pending,
// and that the hooks see each committed byte exactly once.
func checkOneCell(t *testing.T, ops []prep.Op, cfg Config) {
	var hooked int64
	cfg.Cache.Hooks = &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			hooked += r.Len()
		},
	}
	res := runBroadcast(t, ops, []Config{cfg})[0]
	st := res.Faults
	var written int64
	for _, n := range res.Traffic.WriteBack {
		written += n
	}
	if st.OfferedBytes != written {
		t.Fatalf("%v: fault stage offered %d bytes, caches wrote back %d", cfg.Model, st.OfferedBytes, written)
	}
	if got := st.CommittedBytes + st.LostBytes + st.PendingBytes; got != st.OfferedBytes {
		t.Fatalf("%v: committed %d + lost %d + pending %d != offered %d",
			cfg.Model, st.CommittedBytes, st.LostBytes, st.PendingBytes, st.OfferedBytes)
	}
	if hooked != st.CommittedBytes {
		t.Fatalf("%v: hooks saw %d bytes, fault stage committed %d", cfg.Model, hooked, st.CommittedBytes)
	}
}
