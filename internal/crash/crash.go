package crash

import (
	"fmt"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
)

// CacheOutcome describes one crash injected into a cache-model simulation.
type CacheOutcome struct {
	// Index is how many operations had been applied when the crash hit;
	// Time is the simulated crash time (the last applied op's time).
	Index int
	Time  int64
	// LostBytes is dirty data resident only in volatile memory at the
	// crash — destroyed. SurvivedBytes is dirty data resident in NVRAM —
	// recovered after reboot. Their sum is the bytes at risk.
	LostBytes     int64
	SurvivedBytes int64
	// OldestLostAge is the age in microseconds of the oldest destroyed
	// byte run (zero when nothing was lost). The paper's reliability
	// argument bounds it by the 30-second write-back delay.
	OldestLostAge int64
	// PendingStableBytes and PendingVolatileBytes are the fault stage's
	// undelivered backlog at the crash (zero without fault injection):
	// the stable portion rides out the crash in client NVRAM, the
	// volatile portion — a stalled writer's bytes — dies with the client
	// and is folded into LostBytes.
	PendingStableBytes   int64
	PendingVolatileBytes int64
	// Faults snapshots the injector's counters at the crash, nil without
	// fault injection.
	Faults *faults.Stats
	// Violations lists every loss-model invariant the post-crash state
	// broke; empty means the configuration's reliability claim held.
	Violations []string
}

// AtRiskBytes is the dirty data held client-side at the crash.
func (o *CacheOutcome) AtRiskBytes() int64 { return o.LostBytes + o.SurvivedBytes }

func (o *CacheOutcome) violate(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

// RunCache simulates the first k ops of src under cfg, injects a crash at
// that event boundary, applies the loss model, and checks the
// configuration's reliability invariants. k ranges from 0 (crash before
// any work) to the stream length (crash at the end of the trace).
func RunCache(src prep.Source, cfg sim.Config, k int) (*CacheOutcome, error) {
	s := sim.NewStepper(src, cfg)
	if err := s.StepTo(k); err != nil {
		return nil, err
	}
	now := s.Now()
	out := &CacheOutcome{Index: k, Time: now}

	delay := cfg.Cache.WriteBackDelay
	if delay <= 0 {
		delay = 30 * 1e6
	}

	// The crash happens at wall-clock `now` for every client, but the
	// event-driven simulation only runs a client's background machinery
	// when that client receives an operation. Advance everyone to the
	// crash instant first, so each volatile cleaner has flushed what it
	// would have flushed by then — otherwise an idle client would appear
	// to lose bytes older than the write-back window.
	s.ForEachModel(func(_ uint32, m cache.Model) { m.Advance(now) })

	server := s.Server()
	s.ForEachModel(func(client uint32, m cache.Model) {
		var lost, survived, enumerated int64
		var oldest int64
		var curFile uint64
		var haveFile bool
		m.ForEachDirty(func(file uint64, g interval.Seg, stable bool) {
			n := g.Len()
			enumerated += n
			if stable {
				survived += n
			} else {
				lost += n
				if age := now - g.Tag; age > oldest {
					oldest = age
				}
			}
			// Consistency cross-check: a client holding dirty bytes of a
			// file must be the server's last writer of that file —
			// otherwise the recall machinery failed and a crash elsewhere
			// could surface stale data. Checked once per file (runs arrive
			// in file order within each memory).
			if !haveFile || file != curFile {
				curFile, haveFile = file, true
				if w := server.LastWriter(file); w != client {
					out.violate("client %d holds dirty bytes of file %d but server last writer is %d", client, file, w)
				}
			}
		})

		// The enumeration must agree with the model's own dirty count.
		if db := m.DirtyBytes(); enumerated != db {
			out.violate("client %d: ForEachDirty enumerated %d bytes, DirtyBytes reports %d", client, enumerated, db)
		}
		// Conservation: every application-written byte is either at the
		// server, absorbed in-cache, or still dirty. A violation means the
		// loss model is not measuring what the application wrote.
		t := m.Traffic()
		var written int64
		for _, v := range t.WriteBack {
			written += v
		}
		if got := written + t.AbsorbedOverwriteBytes + t.AbsorbedDeleteBytes + enumerated; got != t.AppWriteBytes {
			out.violate("client %d: conservation broken: written %d + absorbed %d + dirty %d != app writes %d",
				client, written, t.AbsorbedOverwriteBytes+t.AbsorbedDeleteBytes, enumerated, t.AppWriteBytes)
		}

		// Per-organization loss-model invariants.
		switch cfg.Model {
		case cache.ModelVolatile:
			if survived > 0 {
				out.violate("client %d: volatile cache reports %d surviving bytes", client, survived)
			}
		case cache.ModelWriteAside, cache.ModelUnified:
			if lost > 0 {
				out.violate("client %d: %v organization lost %d committed bytes", client, cfg.Model, lost)
			}
		}
		if lost > 0 && oldest >= delay {
			out.violate("client %d: lost bytes aged %dus, outside the %dus write-back window", client, oldest, delay)
		}

		out.LostBytes += lost
		out.SurvivedBytes += survived
		if oldest > out.OldestLostAge {
			out.OldestLostAge = oldest
		}
	})

	// Compose the crash with an active fault schedule: the injector's
	// undelivered backlog is data the caches have already emitted but the
	// server has not applied. NVRAM-sourced entries survive (the bytes are
	// still in the client's NVRAM); a stalled volatile writer's entries
	// die with the client.
	if inj := s.Faults(); inj != nil {
		inj.Advance(now)
		st := inj.Stats()
		out.Faults = &st
		stable, volatile := inj.PendingBytes()
		out.PendingStableBytes, out.PendingVolatileBytes = stable, volatile
		out.LostBytes += volatile
		out.SurvivedBytes += stable
		if got := st.CommittedBytes + st.LostBytes + st.PendingBytes; got != st.OfferedBytes {
			out.violate("fault stage conservation broken: committed %d + shed %d + pending %d != offered %d",
				st.CommittedBytes, st.LostBytes, st.PendingBytes, st.OfferedBytes)
		}
		switch cfg.Model {
		case cache.ModelWriteAside, cache.ModelUnified:
			if st.LostBytes > 0 {
				out.violate("%v organization shed %d bytes in the fault stage", cfg.Model, st.LostBytes)
			}
			if volatile > 0 {
				out.violate("%v organization has %d volatile pending bytes in the fault stage", cfg.Model, volatile)
			}
		}
	}
	s.Release()
	return out, nil
}
