package daemon

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/netmodel"
	"nvramfs/internal/nvram"
	"nvramfs/internal/trace"
)

// testConfig is a small unified-organization daemon with zero wire time
// (tests should not sleep through simulated RPC latency).
func testConfig() Config {
	return Config{
		Org: cache.ModelUnified,
		Cache: cache.Config{
			BlockSize:      4096,
			VolatileBlocks: 8,
			NVRAMBlocks:    8,
		},
		Faults:      faults.Profile{Net: &netmodel.Params{}},
		ReadTimeout: 2 * time.Second,
	}
}

// startServer boots a daemon on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Shutdown(2 * time.Second) })
	return s, ln.Addr().String()
}

// checkGoroutines asserts the goroutine count returns to (near) its
// baseline: connections must not leak handler goroutines.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func writeEvent(t *testing.T, c *Client, client uint32, file uint64, off, n int64) Status {
	t.Helper()
	st, err := c.Send(trace.Event{Op: trace.OpWrite, Client: client, File: file, Offset: off, Length: n})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	return st
}

func TestDaemonServesEvents(t *testing.T) {
	s, addr := startServer(t, testConfig())
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Org != "unified" {
		t.Fatalf("handshake org = %q", c.Org)
	}
	for i := int64(0); i < 20; i++ {
		if st := writeEvent(t, c, 1, 7, i*4096, 4096); st != StatusOK {
			t.Fatalf("write %d: status %v", i, st)
		}
	}
	if st, err := c.Send(trace.Event{Op: trace.OpRead, Client: 1, File: 7, Offset: 0, Length: 4096}); err != nil || st != StatusOK {
		t.Fatalf("read: %v %v", st, err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.RequestsOK != 21 || snap.AppliedOps != 21 {
		t.Fatalf("snapshot %+v", snap)
	}
	// 20 x 4KiB writes through an 8-block NVRAM must have forced
	// replacement write-backs into the fault stage.
	waitFor(t, "offered bytes", func() bool {
		sn := s.Snapshot()
		return sn.Faults.OfferedBytes > 0
	})
}

// waitFor polls cond (the write-back pipeline is asynchronous and its
// stats snapshot refreshes on a ticker).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDaemonConservationLaw(t *testing.T) {
	s, addr := startServer(t, testConfig())
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := int64(0); i < 64; i++ {
		writeEvent(t, c, uint32(i%4), 100+uint64(i%3), i*4096, 4096)
	}
	waitFor(t, "conservation settle", func() bool {
		sn := s.Snapshot()
		f := sn.Faults
		return f.OfferedBytes > 0 &&
			f.OfferedBytes == f.CommittedBytes+f.LostBytes+sn.PendingStable+sn.PendingVolatile
	})
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	_, addr := startServer(t, testConfig())
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cases := []trace.Event{
		{Op: trace.OpWrite, Client: 1, File: 1, Length: 0},               // invalid length
		{Op: trace.OpWrite, Client: maxClientID, File: 1, Length: 1},     // client id bound
		{Op: trace.OpWrite, Client: 1, File: 1, Length: maxReqBytes + 1}, // range bound
	}
	for _, e := range cases {
		st, err := c.Send(e)
		if err != nil {
			t.Fatal(err)
		}
		if st != StatusBadRequest {
			t.Fatalf("event %+v: status %v, want bad-request", e, st)
		}
	}
	// The connection survives bad requests.
	if st := writeEvent(t, c, 1, 1, 0, 4096); st != StatusOK {
		t.Fatalf("good request after bad ones: %v", st)
	}
}

func TestDaemonOverloadParksStableShedsVolatile(t *testing.T) {
	for _, tc := range []struct {
		org  cache.ModelKind
		want Status
	}{
		{cache.ModelUnified, StatusParked},
		{cache.ModelVolatile, StatusShedOverload},
	} {
		t.Run(tc.org.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Org = tc.org
			if tc.org == cache.ModelVolatile {
				cfg.Cache.NVRAMBlocks = 0
			}
			cfg.MaxInFlight = 1
			cfg.AdmitWait = 5 * time.Millisecond
			hold := make(chan struct{})
			holding := make(chan struct{}, 1)
			s, _, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.testApplyHold = func(e trace.Event) {
				if e.Client == 0 {
					holding <- struct{}{}
					<-hold
				}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go s.Serve(ln)
			defer s.Shutdown(2 * time.Second)

			blocker, err := Dial(ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer blocker.Close()
			done := make(chan Status, 1)
			go func() {
				st, _ := blocker.Send(trace.Event{Op: trace.OpWrite, Client: 0, File: 1, Length: 4096})
				done <- st
			}()
			<-holding // client 0 is in the core, holding the only token

			c, err := Dial(ln.Addr().String(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if st := writeEvent(t, c, 1, 2, 0, 8192); st != tc.want {
				t.Fatalf("overloaded write: status %v, want %v", st, tc.want)
			}
			// A non-write op can never park: always shed under overload.
			if st, _ := c.Send(trace.Event{Op: trace.OpRead, Client: 1, File: 2, Length: 4096}); st != StatusShedOverload {
				t.Fatalf("overloaded read: status %v, want shed", st)
			}
			close(hold)
			if st := <-done; st != StatusOK {
				t.Fatalf("blocker finished with %v", st)
			}

			if tc.want == StatusParked {
				// Parked bytes entered the conservation ledger as pending.
				waitFor(t, "parked bytes pending", func() bool {
					return s.Snapshot().PendingStable >= 8192
				})
			}
		})
	}
}

func TestDaemonPanicIsolation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := testConfig()
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.testApplyHold = func(e trace.Event) {
		if e.Client == 13 {
			panic("poison client")
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	victim, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Send(trace.Event{Op: trace.OpWrite, Client: 13, File: 1, Length: 512}); err == nil {
		t.Fatal("poisoned request got a response")
	}
	victim.Close()

	// The daemon survives: a fresh connection works, the core is not
	// deadlocked, and the panic was counted.
	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("daemon died after panic: %v", err)
	}
	if st := writeEvent(t, c, 1, 1, 0, 4096); st != StatusOK {
		t.Fatalf("post-panic request: %v", st)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Panics != 1 {
		t.Fatalf("panics = %d, want 1", snap.Panics)
	}
	c.Close()
	s.Shutdown(2 * time.Second)
	checkGoroutines(t, baseline)
}

func TestDaemonDraining(t *testing.T) {
	s, addr := startServer(t, testConfig())
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.draining.Store(true)
	if st := writeEvent(t, c, 1, 1, 0, 4096); st != StatusDraining {
		t.Fatalf("draining daemon returned %v", st)
	}
	s.draining.Store(false)
}

// --- protocol edge cases ---

func TestDaemonPartialFrameDisconnect(t *testing.T) {
	cfg := testConfig()
	cfg.ReadTimeout = 500 * time.Millisecond
	_, addr := startServer(t, cfg)
	baseline := runtime.NumGoroutine() // after the server's own goroutines exist

	// Half a length prefix, then close.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x00, 0x00})
	conn.Close()

	// A full prefix promising a frame that never comes, then close.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64)
	conn2.Write(hdr[:])
	conn2.Write([]byte{ftHello, protoVersion}) // 2 of the promised 64 bytes
	conn2.Close()

	checkGoroutines(t, baseline)
}

func TestDaemonOversizedFrameRejected(t *testing.T) {
	_, addr := startServer(t, testConfig())
	baseline := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	conn.Write(hdr[:])
	// The daemon must drop the connection without trying to read (or
	// allocate) the advertised payload.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection still open after oversized frame")
	}
	checkGoroutines(t, baseline)
}

func TestDaemonSlowLorisHitsReadDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.ReadTimeout = 200 * time.Millisecond
	_, addr := startServer(t, cfg)
	baseline := runtime.NumGoroutine()

	// Handshake properly, then trickle nothing: the read deadline must
	// shed the connection.
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	var one [1]byte
	if _, err := c.conn.Read(one[:]); err == nil {
		t.Fatal("slow-loris connection survived the read deadline")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("connection shed after %v, deadline was 200ms", waited)
	}
	checkGoroutines(t, baseline)
}

func TestDaemonMidRequestDisconnectDuringApply(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := testConfig()
	hold := make(chan struct{})
	holding := make(chan struct{}, 1)
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var held bool
	s.testApplyHold = func(e trace.Event) {
		if !held {
			held = true
			holding <- struct{}{}
			<-hold
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go c.Send(trace.Event{Op: trace.OpWrite, Client: 1, File: 1, Length: 4096})
	<-holding
	c.Close() // client vanishes while its request is mid-apply
	close(hold)

	// The daemon keeps serving.
	c2, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := writeEvent(t, c2, 2, 2, 0, 4096); st != StatusOK {
		t.Fatalf("post-disconnect request: %v", st)
	}
	c2.Close()
	s.Shutdown(2 * time.Second)
	checkGoroutines(t, baseline)
}

func TestDaemonMetricsEndpoint(t *testing.T) {
	s, addr := startServer(t, testConfig())
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeEvent(t, c, 1, 1, 0, 4096)

	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`nvramd_requests_total{status="ok"} 1`,
		`nvramd_writeback_bytes{kind="offered"}`,
		`nvramd_pending_bytes{residence="nvram"}`,
		`nvramd_apply_latency_microseconds{quantile="0.99"}`,
		// No image is attached here, so its counters read zero.
		"\nnvramd_writeback_batches_total ",
		"\nnvramd_writeback_batch_deliveries_total ",
		"\nnvramd_image_msyncs_total 0\n",
		"\nnvramd_image_msync_seconds_total 0\n",
		"\nnvramd_image_records_total 0\n",
		"\nnvramd_image_appended_bytes_total 0\n",
		"\nnvramd_image_compactions_total 0\n",
		fmt.Sprintf("\nnvramd_gomaxprocs %d\n", runtime.GOMAXPROCS(0)),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// parkingConfig is testConfig with an image attached and a fault profile
// under which every delivery ends up parked in it.
func parkingConfig(t *testing.T, prof faults.Profile) (Config, *nvram.Image) {
	t.Helper()
	img, _, err := nvram.OpenImage(filepath.Join(t.TempDir(), "nvram.img"), nvram.ImageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { img.Close() })
	cfg := testConfig()
	prof.Net = &netmodel.Params{}
	cfg.Faults = prof
	cfg.Image = img
	return cfg, img
}

func stableDelivery(i int) faults.Delivery {
	return faults.Delivery{Client: 1, File: uint64(i), Start: 0, End: 4096, Stable: true}
}

// checkGroupCommitted runs after Shutdown (which orders the write-back
// goroutine's image use before ours, and adds one msync of its own): all
// n deliveries are in the image, for fewer than the 2n msyncs that one
// commit barrier per record would have cost.
func checkGroupCommitted(t *testing.T, img *nvram.Image, n int) {
	t.Helper()
	parked, err := faults.RecoverParked(img)
	if err != nil || len(parked) != n || img.Err() != nil {
		t.Fatalf("image holds %d parked deliveries (err %v, image err %v), want %d", len(parked), err, img.Err(), n)
	}
	st := img.Stats()
	if st.Puts != int64(n) || st.Msyncs-1 >= 2*st.Puts {
		t.Fatalf("%d puts cost %d msyncs: the write-back loop did not share commit barriers", st.Puts, st.Msyncs-1)
	}
	t.Logf("%d puts, %d commit barriers", st.Puts, (st.Msyncs-1)/2)
}

// TestDaemonWritebackGroupCommit queues a burst behind the write-back
// goroutine: what is queued while one barrier runs shares the next.
func TestDaemonWritebackGroupCommit(t *testing.T) {
	cfg, img := parkingConfig(t, faults.Profile{MaxAttempts: 1, Outages: []faults.Window{{Start: 0, End: faults.Never}}})
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cap(s.wbCh)
	for i := 0; i < n; i++ {
		s.wbCh <- stableDelivery(i)
	}
	waitFor(t, "burst parked", func() bool { return s.Snapshot().PendingStable == int64(n)*4096 })
	s.Shutdown(time.Second)
	checkGroupCommitted(t, img, n)
}

// TestDaemonBatchCountersMatchImage parks every write-back of two busy
// connections into an image, so handlers are applying events and queueing
// deliveries while the write-back goroutine sits in its commit barriers
// (the interleaving -race is here to check), and then holds the batch
// counters to the ledger: every delivery went through exactly one batch,
// every batch cost one barrier, and what the snapshot calls pending is
// what a reopen of the image finds.
func TestDaemonBatchCountersMatchImage(t *testing.T) {
	cfg, img := parkingConfig(t, faults.Profile{MaxAttempts: 1, Outages: []faults.Window{{Start: 0, End: faults.Never}}})
	s, addr := startServer(t, cfg)

	const conns, writes = 2, 200
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(client uint32) {
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for w := int64(0); w < writes; w++ {
				st, err := c.Send(trace.Event{Op: trace.OpWrite, Client: client, File: uint64(client), Offset: w * 4096, Length: 4096})
				if err == nil && st != StatusOK {
					err = fmt.Errorf("client %d write %d: status %v", client, w, st)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(uint32(i + 1))
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Shutdown drains the queues and publishes the final snapshot: the
	// quiesce point, reached without waiting on a clock.
	s.Shutdown(2 * time.Second)
	snap := s.Snapshot()
	f, im := snap.Faults, snap.Image

	if snap.RequestsOK != conns*writes || f.Deliveries == 0 {
		t.Fatalf("%d requests ok, %d deliveries: the workload did not reach the write-back path", snap.RequestsOK, f.Deliveries)
	}
	// The injector counts a park request as a delivery, so this one
	// equation covers both queues.
	if snap.BatchDeliveries != f.Deliveries || snap.WritebackBatches == 0 || snap.WritebackBatches > snap.BatchDeliveries {
		t.Fatalf("%d batches handled %d deliveries, the injector saw %d", snap.WritebackBatches, snap.BatchDeliveries, f.Deliveries)
	}
	if im.Puts != f.Deliveries || im.Records != im.Puts {
		t.Fatalf("%d deliveries, %d puts in %d records: not every delivery parked", f.Deliveries, im.Puts, im.Records)
	}
	// Every batch appended, so every batch cost one two-msync barrier; the
	// header sync at create and Shutdown's Sync are the other two, and a
	// compaction would force at most one more barrier.
	if lo := 2*snap.WritebackBatches + 2; im.Msyncs < lo || im.Msyncs > lo+2*im.Compactions {
		t.Fatalf("%d msyncs for %d batches and %d compactions, want %d", im.Msyncs, snap.WritebackBatches, im.Compactions, lo)
	}
	t.Logf("%d deliveries in %d batches (mean %.2f), %d msyncs", f.Deliveries, snap.WritebackBatches,
		float64(snap.BatchDeliveries)/float64(snap.WritebackBatches), im.Msyncs)

	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("\nnvramd_writeback_batches_total %d\n", snap.WritebackBatches),
		fmt.Sprintf("\nnvramd_writeback_batch_deliveries_total %d\n", snap.BatchDeliveries),
		fmt.Sprintf("\nnvramd_image_msyncs_total %d\n", im.Msyncs),
		fmt.Sprintf("\nnvramd_image_records_total %d\n", im.Records),
		fmt.Sprintf("\nnvramd_image_appended_bytes_total %d\n", im.AppendedBytes),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, rec.Body.String())
		}
	}

	path := img.Path()
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := nvram.OpenImage(path, nvram.ImageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	parked, err := faults.RecoverParked(reopened)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, p := range parked {
		bytes += p.D.End - p.D.Start
	}
	if int64(len(parked)) != f.Deliveries || bytes != snap.PendingStable {
		t.Fatalf("reopen finds %d deliveries, %d bytes; the snapshot said %d and %d", len(parked), bytes, f.Deliveries, snap.PendingStable)
	}
}

// TestDaemonShutdownParksQueuedResidue stops a daemon whose write-back
// goroutine is asleep in a retry backoff with deliveries queued behind
// it: the stopped clock aborts the schedule, and the sleeper and the
// residue all park durably before Shutdown returns.
func TestDaemonShutdownParksQueuedResidue(t *testing.T) {
	cfg, img := parkingConfig(t, faults.Profile{DropRate: 1, MaxAttempts: 2, BackoffBase: 60_000_000, BackoffCap: 60_000_000})
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		s.wbCh <- stableDelivery(i)
	}
	done := make(chan struct{})
	go func() {
		s.Shutdown(100 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not abort the backoff sleep")
	}
	checkGroupCommitted(t, img, n)
}

// TestDaemonReplyPathDoesNotAllocate holds the connection's reply buffer
// to its purpose: serving an event frame and writing the verdict back
// costs no allocation once the buffer exists. The peer of a net.Pipe reads
// the replies, so the frame really crosses a connection.
func TestDaemonReplyPathDoesNotAllocate(t *testing.T) {
	s, _, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	srv, peer := net.Pipe()
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var in []byte
		for {
			if p, err := readFrame(peer, &in); err != nil || len(p) != 2 || p[0] != ftResult || Status(p[1]) != StatusOK {
				return
			}
		}
	}()

	// A read of a block the client's cache holds: applied, no write-back.
	writeReq := trace.AppendEvent([]byte{ftEvent}, trace.Event{Op: trace.OpWrite, Client: 1, File: 1, Length: 4096})
	readReq := trace.AppendEvent([]byte{ftEvent}, trace.Event{Op: trace.OpRead, Client: 1, File: 1, Length: 4096})
	var out []byte
	serve := func(req []byte) {
		if out, err = s.appendReply(beginFrame(out), req); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(srv, out); err != nil {
			t.Fatal(err)
		}
	}
	serve(writeReq)
	if allocs := testing.AllocsPerRun(200, func() { serve(readReq) }); allocs != 0 {
		t.Fatalf("serving an event and replying allocates %.1f times, want 0", allocs)
	}
	srv.Close()
	<-done
	if got := s.Snapshot().RequestsOK; got != 202 {
		t.Fatalf("%d requests answered ok, want 202 (a reply was not ok)", got)
	}
}
