package nvramfs_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"nvramfs"
)

// The package-level example: synthesize the paper's "typical trace" and
// measure how much client-server write traffic one megabyte of NVRAM
// absorbs under the unified cache model.
func Example() {
	tr, err := nvramfs.StandardTrace(7, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	base, err := tr.RunCache(nvramfs.CacheConfig{Model: "volatile", VolatileMB: 8})
	if err != nil {
		log.Fatal(err)
	}
	nv, err := tr.RunCache(nvramfs.CacheConfig{Model: "unified", VolatileMB: 8, NVRAMMB: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("volatile: %.0f%% of written bytes reach the server\n",
		base.Traffic.NetWriteFrac()*100)
	fmt.Printf("unified:  %.0f%%\n", nv.Traffic.NetWriteFrac()*100)
	// Output:
	// volatile: 58% of written bytes reach the server
	// unified:  36%
}

// Replaying a server workload against the LFS simulator with the paper's
// half-megabyte NVRAM write buffer.
func ExampleRunServer() {
	plain, err := nvramfs.RunServer("/user6", 6*time.Hour, 0)
	if err != nil {
		log.Fatal(err)
	}
	buffered, err := nvramfs.RunServer("/user6", 6*time.Hour, 512<<10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buffer cut /user6 disk writes by %.0f%%\n",
		100*(1-float64(buffered.DiskWrites)/float64(plain.DiskWrites)))
	// Output:
	// buffer cut /user6 disk writes by 98%
}

// The byte-lifetime analysis behind Figure 2 and Table 2.
func ExampleTrace_Analyze() {
	tr, err := nvramfs.StandardTrace(1, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	an, err := tr.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	f := an.Fate
	fmt.Printf("absorbed %.0f%%, called back %.0f%%, remaining %.0f%%\n",
		100*float64(f.Absorbed())/float64(f.Total),
		100*float64(f.CalledBack)/float64(f.Total),
		100*float64(f.Remaining)/float64(f.Total))
	// Output:
	// absorbed 63%, called back 17%, remaining 19%
}

// Crash recovery: fsync'd data survives in the NVRAM write buffer while
// volatile dirty data is lost.
func ExampleFS_SimulateCrashAndRecover() {
	fs, err := nvramfs.NewRecoverableFS(512 << 10)
	if err != nil {
		log.Fatal(err)
	}
	fs.Write(0, 1, 0, 16<<10) // four blocks
	fs.Fsync(1, 1)            // parked in NVRAM
	fs.Write(2, 2, 0, 8<<10)  // two blocks, still volatile

	_, report, err := fs.SimulateCrashAndRecover(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lost %d blocks, recovered %d from NVRAM\n",
		report.LostDirtyBlocks, report.RecoveredBufferedBlocks)
	// Output:
	// lost 2 blocks, recovered 4 from NVRAM
}

// Regenerating one of the paper's figures programmatically (compile-only:
// the rendering is shown by cmd/nvreport).
func ExampleFigure4Context() {
	ws := nvramfs.NewWorkspace(0.1)
	fig4, err := nvramfs.Figure4Context(context.Background(), ws)
	if err != nil {
		log.Fatal(err)
	}
	_ = fig4.Render(os.Stdout)
}
