// endtoend runs the full storage hierarchy in one simulation: client
// caches feed a file server (cache + log-structured file system + disk)
// through the library's traffic hooks, so NVRAM's effect is visible at
// every level at once — network write traffic, forced partial segments,
// and disk accesses.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"nvramfs"
)

func main() {
	scale := flag.Float64("scale", 0.5, "workload scale (1.0 = paper scale)")
	flag.Parse()

	fmt.Println("Replaying trace 7 through three configurations:")
	fmt.Println("  1. volatile client caches, plain server (the pre-NVRAM world)")
	fmt.Println("  2. one megabyte of NVRAM in each client cache (paper Section 2)")
	fmt.Println("  3. client NVRAM plus a server NVRAM region (paper Section 3)")
	fmt.Println()

	res, err := runStack(&nvramfs.Session{Workspace: nvramfs.NewWorkspace(*scale)})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	base, cli, both := res.Rows[0], res.Rows[1], res.Rows[2]
	fmt.Println()
	fmt.Printf("client NVRAM cut network write traffic %.0f%% -> %.0f%% and disk writes %.1fx\n",
		base.NetWriteFrac*100, cli.NetWriteFrac*100,
		float64(base.ServerDiskWrites)/float64(cli.ServerDiskWrites))
	fmt.Printf("adding server NVRAM collapsed partial segments %d -> %d (disk writes %.0fx down overall)\n",
		cli.PartialSegments, both.PartialSegments,
		float64(base.ServerDiskWrites)/float64(both.ServerDiskWrites))
}

// runStack runs the registry's "stack" experiment on the session.
func runStack(s *nvramfs.Session) (*nvramfs.StackResult, error) {
	for _, e := range nvramfs.Experiments() {
		if e.Name != "stack" {
			continue
		}
		r, err := e.Run(context.Background(), s)
		if err != nil {
			return nil, err
		}
		return r.(*nvramfs.StackResult), nil
	}
	return nil, fmt.Errorf("no experiment %q in the registry", "stack")
}
