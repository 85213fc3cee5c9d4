// Command nvramd runs the simulation spine as a long-running network
// service: a fault-tolerant daemon that accepts trace events over a
// length-prefixed binary protocol, runs a cache organization and the
// write-back fault schedule against wall-clock time, and — when given a
// durable state directory — survives SIGKILL with zero committed-byte
// loss, recovering the parked write-back backlog on restart.
//
// Usage:
//
//	nvramd -addr 127.0.0.1:7343 -dir /var/lib/nvramd -org unified
//	nvramd -addr 127.0.0.1:0 -metrics 127.0.0.1:0 \
//	       -faults 'seed=7,drop=0.05,outage=10s+5s'
//
// On startup the daemon announces three machine-readable lines on
// stdout — RECOVERED=<n> (parked deliveries re-adopted from the image),
// ADDR=<host:port>, and, with -metrics, METRICS=<url> — then serves until
// SIGTERM or SIGINT triggers a graceful drain: in-flight requests finish,
// the retry scheduler aborts onto the degradation path (stable bytes park
// durably), and the image is synced and closed.
//
// Load it with `nvtrace -replay` and scrape the Prometheus text endpoint
// for throughput, latency quantiles, and the conservation-law counters.
//
// The process never runs with fewer than two Ps (see main): the write-back
// goroutine spends its life blocked in msync, and the connection handlers
// must keep reading frames meanwhile.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nvramfs/internal/cache"
	"nvramfs/internal/daemon"
	"nvramfs/internal/faults"
	"nvramfs/internal/netmodel"
	"nvramfs/internal/nvram"
)

// imageName matches internal/crash's live harness so the kill/restart
// tooling and a hand-run daemon agree on where the durable state lives.
const imageName = "nvramd.img"

func parseOrg(name string) (cache.ModelKind, error) {
	for _, k := range []cache.ModelKind{
		cache.ModelVolatile, cache.ModelWriteAside, cache.ModelUnified, cache.ModelHybrid,
	} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown organization %q (volatile, write-aside, unified, hybrid)", name)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvramd: ")
	// Start-up policy, not a setting: exactly one goroutine of this process
	// lives in the kernel (the write-back goroutine, in Image.Flush's two
	// msyncs and compaction's fsync and rename), and with a single P it
	// holds that P through each barrier until the runtime's monitor thread
	// notices, so no handler reads a frame while a batch commits. A second
	// P lets the handlers run during the barrier even when the process is
	// confined to one CPU. See DESIGN.md section 13, "Threading model".
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	var (
		addr      = flag.String("addr", "127.0.0.1:7343", "TCP listen address (port 0 picks a free port)")
		metrics   = flag.String("metrics", "", "serve Prometheus text metrics at this address's /metrics ('' = off)")
		dir       = flag.String("dir", "", "durable state directory; parked write-backs survive a crash ('' = no durability)")
		org       = flag.String("org", "unified", "cache organization: volatile, write-aside, unified, hybrid")
		blockSize = flag.Int64("block", 4096, "cache block size in bytes")
		cacheMB   = flag.Int64("cache-mb", 8, "volatile cache size in MiB")
		nvramMB   = flag.Int64("nvram-mb", 2, "NVRAM size in MiB")
		faultSpec = flag.String("faults", "", "write-back fault schedule, key=value comma list:\n"+faults.SpecUsage())
		inflight  = flag.Int("max-inflight", 64, "admission budget: concurrently applied requests")
		admitWait = flag.Duration("admit-wait", 10*time.Millisecond, "how long admission may block before the overload path")
		readTO    = flag.Duration("read-timeout", 30*time.Second, "per-frame read deadline (slow-loris bound)")
		writeTO   = flag.Duration("write-timeout", 10*time.Second, "per-response write deadline")
		grace     = flag.Duration("grace", 5*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	)
	flag.Parse()

	kind, err := parseOrg(*org)
	if err != nil {
		log.Fatal(err)
	}
	prof := faults.Profile{}
	if *faultSpec != "" {
		p, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		prof = *p
	}
	// The wire between clients and this daemon is real, so the simulated
	// network model's per-attempt latency charge is disabled; drops,
	// spikes, outages, and the retry policy still apply.
	prof.Net = &netmodel.Params{}

	var img *nvram.Image
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			log.Fatal(err)
		}
		var err error
		img, _, err = nvram.OpenImage(filepath.Join(*dir, imageName), nvram.ImageOptions{})
		if err != nil {
			log.Fatal(err)
		}
	}

	srv, recovered, err := daemon.New(daemon.Config{
		Org: kind,
		Cache: cache.Config{
			BlockSize:      *blockSize,
			VolatileBlocks: int(*cacheMB << 20 / *blockSize),
			NVRAMBlocks:    int(*nvramMB << 20 / *blockSize),
		},
		Faults:       prof,
		Image:        img,
		MaxInFlight:  *inflight,
		AdmitWait:    *admitWait,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RECOVERED=%d\n", recovered)
	fmt.Printf("ADDR=%s\n", ln.Addr())
	log.Printf("serving %s on %s (recovered %d parked deliveries)", kind, ln.Addr(), recovered)

	var mln net.Listener
	if *metrics != "" {
		mln, err = net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		go http.Serve(mln, mux)
		fmt.Printf("METRICS=http://%s/metrics\n", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("%v: draining (grace %s)", s, *grace)
		srv.Shutdown(*grace)
		<-serveErr
	case err := <-serveErr:
		srv.Shutdown(*grace)
		if err != nil {
			log.Fatal(err)
		}
	}
	if mln != nil {
		mln.Close()
	}
	snap := srv.Snapshot()
	log.Printf("drained: ok=%d parked=%d shed=%d bad=%d committed=%dB pending(nvram)=%dB",
		snap.RequestsOK, snap.Parked, snap.Shed, snap.BadRequests,
		snap.Faults.CommittedBytes, snap.PendingStable)
	if img != nil {
		if err := img.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
