// Command trustddl-bench reproduces Table II of the TrustDDL paper:
// runtime and communication cost of single-image training and inference
// for SecureNN, Falcon (honest-but-curious and malicious), SafeML and
// TrustDDL (honest-but-curious and malicious) over the Table I network.
//
// Usage:
//
//	trustddl-bench [-iters N] [-seed S] [-frameworks a,b,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	trustddl "github.com/trustddl/trustddl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustddl-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustddl-bench", flag.ContinueOnError)
	iters := fs.Int("iters", 3, "single-image operations averaged per measurement")
	seed := fs.Uint64("seed", 1, "deterministic seed for weights, data and shares")
	frameworks := fs.String("frameworks", "", "comma-separated framework filter (SecureNN, Falcon, SafeML, TrustDDL); empty runs all")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := trustddl.Table2Config{Iterations: *iters, Seed: *seed}
	if *frameworks != "" {
		cfg.Frameworks = strings.Split(*frameworks, ",")
	}

	fmt.Println("TrustDDL reproduction — Table II: Runtime and Communication Cost")
	fmt.Printf("(single-image operations, averaged over %d iterations, Table I network)\n\n", *iters)
	rows, err := trustddl.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Print(trustddl.FormatTable2(rows))
	fmt.Println("\nSee EXPERIMENTS.md for the paper-vs-measured comparison.")
	return nil
}
