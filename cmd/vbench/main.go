// Command vbench regenerates every table and numeric section of the
// paper's evaluation and prints paper-vs-measured results.
//
// Usage:
//
//	vbench            # run everything
//	vbench -list      # list experiment ids
//	vbench table51    # run selected experiments
//	vbench -max-dev   # also print each table's max deviation from the paper
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vkernel/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	maxDev := flag.Bool("max-dev", false, "print each table's maximum deviation from the paper")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := experiments.Registry
	if args := flag.Args(); len(args) > 0 {
		selected = nil
		for _, id := range args {
			e, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "vbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		start := time.Now()
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		for _, t := range res.Tables {
			fmt.Println()
			fmt.Print(t.Render())
			if *maxDev {
				fmt.Printf("max deviation from paper: %.1f%%\n", 100*t.MaxDeviation())
			}
		}
		for _, n := range res.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Printf("(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
