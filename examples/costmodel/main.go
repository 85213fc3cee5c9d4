// costmodel reproduces the paper's economic argument (Table 1 and Section
// 2.7): at 1992 prices, when is NVRAM a better buy than more volatile
// memory for a client cache?
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"nvramfs"
)

// render runs the named registry experiment on the session and prints its
// result.
func render(s *nvramfs.Session, name string) {
	for _, e := range nvramfs.Experiments() {
		if e.Name != name {
			continue
		}
		r, err := e.Run(context.Background(), s)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	log.Fatalf("no experiment %q in the registry", name)
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper scale; smaller scales shrink working sets and flatten the memory-size curves)")
	flag.Parse()
	s := &nvramfs.Session{Workspace: nvramfs.NewWorkspace(*scale)}

	// Table 1: the raw component prices.
	render(s, "table1")

	// Measure the benefit curves (Figure 6): volatile vs unified growth
	// from 8 MB and 16 MB bases on the typical trace.
	fmt.Println("\nmeasuring traffic curves (Figure 6)...")
	render(s, "fig6")

	// Price the equivalences: how much volatile memory buys the same
	// traffic reduction as each NVRAM amount, and which is cheaper. The
	// workspace memoizes Figure 6's cells, so this simulates nothing new.
	fmt.Println()
	render(s, "cost")

	fmt.Println("\nThe paper's conclusion: with only 8 MB of volatile cache, volatile")
	fmt.Println("memory is the better buy at 1992 prices; once the volatile cache is")
	fmt.Println("large (16 MB), read traffic is saturated and a small NVRAM buys a")
	fmt.Println("write-traffic reduction volatile memory cannot match at any price.")
}
