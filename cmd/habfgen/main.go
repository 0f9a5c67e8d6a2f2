// Command habfgen writes the synthetic evaluation datasets to disk, one
// key per line, so external tools can consume the same workloads the
// benchmarks use.
//
// Usage:
//
//	habfgen -dataset shalla -n 100000 -out ./data
//	habfgen -dataset ycsb -n 500000 -skew 1.0 -out ./data
//
// Three files are produced in the output directory: <name>.positive,
// <name>.negative and <name>.costs (one float per negative key, aligned
// by line).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset"
)

func main() {
	var (
		name = flag.String("dataset", "shalla", "dataset: shalla or ycsb")
		n    = flag.Int("n", 100000, "keys per side")
		skew = flag.Float64("skew", 0, "Zipf cost skewness (0 = uniform)")
		seed = flag.Int64("seed", 1, "generator seed")
		out  = flag.String("out", ".", "output directory")
	)
	flag.Parse()

	var pair dataset.Pair
	switch *name {
	case "shalla":
		pair = dataset.Shalla(*n, *n, *seed)
	case "ycsb":
		pair = dataset.YCSB(*n, *n, *seed)
	default:
		fmt.Fprintf(os.Stderr, "habfgen: unknown dataset %q\n", *name)
		os.Exit(2)
	}
	costs := dataset.ZipfCosts(*n, *skew, *seed)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "habfgen:", err)
		os.Exit(1)
	}
	base := filepath.Join(*out, *name)
	err := dataset.SaveKeys(base+".positive", pair.Positives)
	if err == nil {
		err = dataset.SaveKeys(base+".negative", pair.Negatives)
	}
	if err == nil {
		err = dataset.SaveCosts(base+".costs", costs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "habfgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s.{positive,negative,costs} (%d keys per side, skew %.1f)\n", base, *n, *skew)
}
