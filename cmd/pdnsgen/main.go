// Command pdnsgen generates the calibrated synthetic passive-DNS dataset
// and writes it as TSV or JSONL, one record per line (schema of paper §3.2:
// fqdn, rtype, rdata, first_seen, last_seen, request_cnt, pdate).
//
// Usage:
//
//	pdnsgen -seed 1 -scale 0.01 -format tsv -o pdns.tsv
//
// The file is an export of the dataset: the pipeline itself consumes the
// same emission in memory and reads no PDNS files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/dnssim"
	"repro/internal/pdns"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdnsgen: ")
	var (
		seed    = flag.Int64("seed", 1, "generator seed (equal seeds give identical datasets)")
		scale   = flag.Float64("scale", 0.01, "fraction of the paper's 531k-domain population")
		format  = flag.String("format", "tsv", "output format: tsv or jsonl")
		out     = flag.String("o", "-", "output file (- for stdout)")
		cache   = flag.Bool("cache-model", false, "model resolver caching (request_cnt becomes a lower bound)")
		fleet   = flag.String("fleet", "", "also write the ground-truth fleet spec (JSONL) to this file")
		workers = flag.Int("workers", 0, "generation worker pool (0 = GOMAXPROCS; output is byte-identical for every value)")
	)
	flag.Parse()

	var f pdns.Format
	switch *format {
	case "tsv":
		f = pdns.TSV
	case "jsonl":
		f = pdns.JSONL
	default:
		log.Fatalf("unknown format %q (want tsv or jsonl)", *format)
	}

	w := os.Stdout
	if *out != "-" {
		file, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer file.Close()
		w = file
	}

	pop := workload.Generate(workload.Config{Seed: *seed, Scale: *scale, CacheModel: *cache, Workers: *workers})
	if *fleet != "" {
		ff, err := os.Create(*fleet)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.WritePopulation(ff, pop); err != nil {
			log.Fatal(err)
		}
		if err := ff.Close(); err != nil {
			log.Fatal(err)
		}
	}
	writer := pdns.NewWriter(w, f)
	if err := workload.EmitPDNSOrdered(pop, dnssim.NewResolver(), *workers, writer.Write); err != nil {
		log.Fatal(err)
	}
	if err := writer.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pdnsgen: %d functions, %d records\n", len(pop.Functions), writer.Count())
}
