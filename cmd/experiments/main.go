// Command experiments regenerates the reproduced exhibits E1–E31 (there
// is no E28 exhibit; E28 is a benchmark only).
//
// Usage:
//
//	experiments -list
//	experiments -run all [-quick] [-seed 7] [-csv]
//	experiments -run E5,E9
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	quick := flag.Bool("quick", false, "reduced Monte-Carlo fidelity")
	seed := flag.Int64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	frames := flag.Int("frames", 0, "override frames per PER point")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *frames > 0 {
		cfg.Frames = *frames
	}

	var runners []experiments.Runner
	if *run == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		for _, tb := range r.Run(cfg) {
			if *csv {
				fmt.Printf("# %s: %s\n%s\n", tb.ID, tb.Title, tb.CSV())
			} else {
				fmt.Println(tb.Format())
			}
		}
	}
}
