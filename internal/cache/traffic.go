package cache

import "fmt"

// Cause classifies why dirty bytes were written from a client cache to the
// server (the rows of the paper's Table 2, plus the mechanisms of Section
// 2.1).
type Cause uint8

// Write-back causes.
const (
	// CauseReplacement: dirty block evicted to make room.
	CauseReplacement Cause = iota
	// CauseCleaner: Sprite's 30-second delayed write-back (volatile model).
	CauseCleaner
	// CauseFsync: application fsync (volatile model only; NVRAM models
	// treat NVRAM as stable storage, so fsync generates no server traffic).
	CauseFsync
	// CauseCallback: server recalled dirty data when another client opened
	// the file.
	CauseCallback
	// CauseMigration: dirty data flushed because a process migrated away.
	CauseMigration
	// CauseConcurrent: writes that bypassed the cache because caching was
	// disabled by concurrent write-sharing.
	CauseConcurrent
	// CauseEnd: bytes remaining dirty at the end of the trace, counted
	// pessimistically as eventual server traffic (as the paper does).
	CauseEnd

	NumCauses
)

var causeNames = [...]string{
	CauseReplacement: "replacement",
	CauseCleaner:     "cleaner",
	CauseFsync:       "fsync",
	CauseCallback:    "callback",
	CauseMigration:   "migration",
	CauseConcurrent:  "concurrent",
	CauseEnd:         "remaining",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Traffic accumulates the byte counters for one client cache (or, summed,
// for a whole simulation).
type Traffic struct {
	// Application-level demand.
	AppReadBytes  int64
	AppWriteBytes int64

	// Client-server traffic.
	ServerReadBytes int64            // block fetches + concurrent-mode reads
	WriteBack       [NumCauses]int64 // server write traffic by cause

	// Absorption: dirty bytes that died in the cache without server traffic.
	AbsorbedOverwriteBytes int64
	AbsorbedDeleteBytes    int64

	// Cache hits.
	ReadHitBytes int64

	// Client memory-bus traffic on the write path: bytes stored into cache
	// memories (twice per byte in the write-aside model) plus inter-cache
	// transfers. Fetch traffic is counted separately in BusReadBytes.
	BusWriteBytes int64
	BusReadBytes  int64

	// NVRAM activity.
	NVRAMReadBytes  int64
	NVRAMWriteBytes int64
	NVRAMAccesses   int64 // block-granularity NVRAM operations

	// VulnerableWriteBytes counts dirty bytes written into *volatile*
	// memory by models that permit it (the hybrid extension): data
	// exposed to loss for up to the write-back delay.
	VulnerableWriteBytes int64
}

// Add accumulates o into t.
func (t *Traffic) Add(o *Traffic) {
	t.AppReadBytes += o.AppReadBytes
	t.AppWriteBytes += o.AppWriteBytes
	t.ServerReadBytes += o.ServerReadBytes
	for i := range t.WriteBack {
		t.WriteBack[i] += o.WriteBack[i]
	}
	t.AbsorbedOverwriteBytes += o.AbsorbedOverwriteBytes
	t.AbsorbedDeleteBytes += o.AbsorbedDeleteBytes
	t.ReadHitBytes += o.ReadHitBytes
	t.BusWriteBytes += o.BusWriteBytes
	t.BusReadBytes += o.BusReadBytes
	t.NVRAMReadBytes += o.NVRAMReadBytes
	t.NVRAMWriteBytes += o.NVRAMWriteBytes
	t.NVRAMAccesses += o.NVRAMAccesses
	t.VulnerableWriteBytes += o.VulnerableWriteBytes
}

// ServerWriteBytes returns total client-to-server write traffic.
func (t *Traffic) ServerWriteBytes() int64 {
	var n int64
	for _, v := range t.WriteBack {
		n += v
	}
	return n
}

// AbsorbedBytes returns the dirty bytes that died in the cache.
func (t *Traffic) AbsorbedBytes() int64 {
	return t.AbsorbedOverwriteBytes + t.AbsorbedDeleteBytes
}

// NetWriteFrac is the fraction of application-written bytes that reached
// the server (the y-axis of Figures 2-4), including bytes remaining at the
// end of the trace.
func (t *Traffic) NetWriteFrac() float64 {
	if t.AppWriteBytes == 0 {
		return 0
	}
	return float64(t.ServerWriteBytes()) / float64(t.AppWriteBytes)
}

// NetTotalFrac is the fraction of all application file traffic (reads plus
// writes) that moved between client and server (the y-axis of Figures 5-6).
func (t *Traffic) NetTotalFrac() float64 {
	total := t.AppReadBytes + t.AppWriteBytes
	if total == 0 {
		return 0
	}
	return float64(t.ServerReadBytes+t.ServerWriteBytes()) / float64(total)
}
