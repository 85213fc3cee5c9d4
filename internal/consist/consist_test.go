package consist

import "testing"

func TestRecallOnOpenByOtherClient(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Close(1, 10)

	res := s.Open(2, 10, false)
	if res.RecallFrom != 1 {
		t.Fatalf("RecallFrom = %d, want 1", res.RecallFrom)
	}
	if !res.InvalidateOpener {
		t.Fatal("opener's stale copy not invalidated")
	}
	if res.Disabled {
		t.Fatal("caching wrongly disabled")
	}
	// A second open by the same client needs no recall.
	s.Close(2, 10)
	res = s.Open(2, 10, false)
	if res.RecallFrom != NoClient {
		t.Fatalf("second open RecallFrom = %d", res.RecallFrom)
	}
	if res.InvalidateOpener {
		t.Fatal("fresh copy invalidated")
	}
}

func TestNoRecallForSameClient(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Close(1, 10)
	res := s.Open(1, 10, true)
	if res.RecallFrom != NoClient || res.InvalidateOpener {
		t.Fatalf("res = %+v", res)
	}
}

func TestConcurrentWriteSharing(t *testing.T) {
	s := NewServer()
	r1 := s.Open(1, 10, true)
	if r1.Disabled || r1.JustDisabled {
		t.Fatal("single open disabled caching")
	}
	r2 := s.Open(2, 10, true)
	if !r2.JustDisabled || !r2.Disabled {
		t.Fatalf("concurrent write open did not disable caching: %+v", r2)
	}
	if !s.Disabled(10) {
		t.Fatal("Disabled(10) = false")
	}
	// Writes during disable leave no last-writer record.
	s.Write(1, 10)
	if s.LastWriter(10) != NoClient {
		t.Fatalf("LastWriter = %d during disable", s.LastWriter(10))
	}
	// Caching re-enables when all clients close.
	if s.Close(1, 10) {
		t.Fatal("reenabled too early")
	}
	if !s.Close(2, 10) {
		t.Fatal("not reenabled after last close")
	}
	if s.Disabled(10) {
		t.Fatal("still disabled after all closes")
	}
}

func TestTwoReadersDoNotDisable(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, false)
	r := s.Open(2, 10, false)
	if r.Disabled {
		t.Fatal("read-only sharing disabled caching")
	}
}

func TestReaderPlusWriterDisables(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, false)
	r := s.Open(2, 10, true)
	if !r.JustDisabled {
		t.Fatal("reader+writer did not disable caching")
	}
}

func TestFlushedClearsRecall(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Close(1, 10)
	s.Flushed(1, 10)
	res := s.Open(2, 10, false)
	if res.RecallFrom != NoClient {
		t.Fatalf("RecallFrom = %d after flush", res.RecallFrom)
	}
}

// TestRecallClearsLastWriter: the open that reports a recall clears the
// recall obligation itself, so a Flushed(RecallFrom, f) after the recall
// flush would find nothing to clear (the simulator makes no such call).
func TestRecallClearsLastWriter(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Close(1, 10)
	if res := s.Open(2, 10, false); res.RecallFrom != 1 {
		t.Fatalf("RecallFrom = %d, want 1", res.RecallFrom)
	}
	if w := s.LastWriter(10); w != NoClient {
		t.Fatalf("LastWriter after the recalling open = %d, want NoClient", w)
	}
	if res := s.Open(3, 10, false); res.RecallFrom != NoClient {
		t.Fatalf("second opener recalls again from %d", res.RecallFrom)
	}
}

func TestFlushedByOtherClientIgnored(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Flushed(2, 10) // not the last writer
	if s.LastWriter(10) != 1 {
		t.Fatal("wrong client's flush cleared the record")
	}
}

func TestDeleted(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Deleted(10)
	if s.LastWriter(10) != NoClient || s.Disabled(10) {
		t.Fatal("state survived deletion")
	}
}

func TestVersionInvalidation(t *testing.T) {
	s := NewServer()
	// Client 2 caches version 1.
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Close(1, 10)
	s.Open(2, 10, false) // recalls, caches v1
	s.Close(2, 10)
	// Client 1 writes again -> version bumps.
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Close(1, 10)
	// Client 2 reopens: its copy is stale.
	res := s.Open(2, 10, false)
	if !res.InvalidateOpener {
		t.Fatal("stale copy not invalidated")
	}
}

func TestCounters(t *testing.T) {
	s := NewServer()
	s.Open(1, 10, true)
	s.Write(1, 10)
	s.Open(2, 10, true) // recall + disable
	if s.Recalls != 1 || s.DisableEvents != 1 {
		t.Fatalf("counters: %+v", s)
	}
}
