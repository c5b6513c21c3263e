// Command twoviewgen generates synthetic two-view datasets, either from
// one of the fourteen calibrated paper profiles or from explicit
// dimensions, and writes them in the text format understood by the other
// tools.
//
// Usage:
//
//	twoviewgen -profile house -out house.tv
//	twoviewgen -size 1000 -items-l 20 -items-r 30 -density-l 0.2 \
//	           -density-r 0.1 -bidir 4 -uni 6 -seed 7 -out data.tv
//	twoviewgen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"twoview/internal/dataset"
	"twoview/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("twoviewgen: ")
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// errUsage is run's verdict on a command line it could not parse; the
// flag package has already printed the error and the usage message.
var errUsage = errors.New("usage")

// run generates or converts one dataset as the command line asks.
// Without -out the dataset goes to stdout, and so do the reports.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("twoviewgen", flag.ContinueOnError)
	var (
		profile  = fs.String("profile", "", "paper profile name (see -list)")
		fromCSV  = fs.String("from-csv", "", "convert a headered CSV file instead of synthesizing")
		fromARFF = fs.String("from-arff", "", "convert a dense ARFF file instead of synthesizing")
		bins     = fs.Int("bins", 5, "equal-height bins per numeric attribute (conversion)")
		maxFreq  = fs.Float64("max-freq", 0, "drop items above this frequency, e.g. 0.5 (conversion)")
		list     = fs.Bool("list", false, "list available profiles and exit")
		out      = fs.String("out", "", "output file (default: stdout)")
		scale    = fs.Float64("scale", 1, "scale the number of transactions")
		truth    = fs.String("truth", "", "also write the planted ground-truth rules to this file")
		size     = fs.Int("size", 1000, "transactions (custom profile)")
		itemsL   = fs.Int("items-l", 20, "left items (custom profile)")
		itemsR   = fs.Int("items-r", 20, "right items (custom profile)")
		densityL = fs.Float64("density-l", 0.2, "left density (custom profile)")
		densityR = fs.Float64("density-r", 0.2, "right density (custom profile)")
		bidir    = fs.Int("bidir", 4, "planted bidirectional rules (custom profile)")
		uni      = fs.Int("uni", 4, "planted unidirectional rules (custom profile)")
		seed     = fs.Int64("seed", 1, "random seed (custom profile)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *list {
		fmt.Fprintln(stdout, "available profiles (|D|, |I_L|, |I_R|, d_L, d_R):")
		for _, p := range synth.Profiles() {
			fmt.Fprintf(stdout, "  %-10s %6d %4d %4d  %.3f %.3f\n",
				p.Name, p.Size, p.ItemsL, p.ItemsR, p.DensityL, p.DensityR)
		}
		return nil
	}

	if *fromCSV != "" || *fromARFF != "" {
		d, err := convert(*fromCSV, *fromARFF, *bins, *maxFreq)
		if err != nil {
			return err
		}
		if err := writeDataset(d, *out, stdout); err != nil {
			return err
		}
		if *out != "" {
			st := d.Stats()
			fmt.Fprintf(stdout, "wrote %s: %d transactions, %d+%d items, densities %.3f/%.3f\n",
				*out, st.Size, st.ItemsL, st.ItemsR, st.DensityL, st.DensityR)
		}
		return nil
	}

	var p synth.Profile
	if *profile != "" {
		var err error
		if p, err = synth.ProfileByName(*profile); err != nil {
			return err
		}
	} else {
		p = synth.Profile{
			Name: "custom", Size: *size, ItemsL: *itemsL, ItemsR: *itemsR,
			DensityL: *densityL, DensityR: *densityR,
			BidirRules: *bidir, UniRules: *uni, Seed: *seed,
		}
	}
	if *scale != 1 {
		p = p.Scaled(*scale)
	}

	d, rules, err := synth.Generate(p)
	if err != nil {
		return err
	}
	if err := writeDataset(d, *out, stdout); err != nil {
		return err
	}
	if *out != "" {
		st := d.Stats()
		fmt.Fprintf(stdout, "wrote %s: %d transactions, %d+%d items, densities %.3f/%.3f, %d planted rules\n",
			*out, st.Size, st.ItemsL, st.ItemsR, st.DensityL, st.DensityR, len(rules))
	}

	if *truth != "" {
		f, err := os.Create(*truth)
		if err != nil {
			return err
		}
		for _, r := range rules {
			fmt.Fprintf(f, "%s\n", r.Format(d))
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d ground-truth rules\n", *truth, len(rules))
	}
	return nil
}

// convert ingests a CSV or ARFF file through the paper's preprocessing
// pipeline (equal-height bins, categorical expansion, density-balanced
// view split).
func convert(csvPath, arffPath string, bins int, maxFreq float64) (*dataset.Dataset, error) {
	var cols []*dataset.Column
	path := csvPath
	if arffPath != "" {
		path = arffPath
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if arffPath != "" {
		cols, err = dataset.LoadARFF(f)
	} else {
		cols, err = dataset.LoadCSV(f)
	}
	if err != nil {
		return nil, err
	}
	return dataset.Ingest(cols, dataset.BooleanizeOptions{Bins: bins, MaxFrequency: maxFreq})
}

func writeDataset(d *dataset.Dataset, out string, stdout io.Writer) error {
	if out == "" {
		return dataset.Write(stdout, d)
	}
	return dataset.WriteFile(out, d)
}
