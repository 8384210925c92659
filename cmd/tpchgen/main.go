// Command tpchgen generates the TPC-H-shaped data set and writes each table
// in the engine's binary column format, PCOL v2: fixed-size blocks with
// per-column compression and zone maps.
//
// Usage:
//
//	tpchgen -rows 1000000 -seed 42 -ordering natural -out ./data
//	tpchgen -rows 1000000 -blockrows 4096 -compress -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"progopt/internal/columnar"
	"progopt/internal/tpch"
)

func main() {
	var (
		rows      = flag.Int("rows", 1_000_000, "lineitem row count")
		seed      = flag.Int64("seed", 1, "generation seed")
		ordering  = flag.String("ordering", "natural", "lineitem row order: natural|sorted|clustered|random")
		out       = flag.String("out", ".", "output directory")
		blockRows = flag.Int("blockrows", 4096, "rows per block")
		compress  = flag.Bool("compress", false, "print per-column compression statistics")
	)
	flag.Parse()

	d, err := tpch.Generate(tpch.Config{Lineitems: *rows, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	switch *ordering {
	case "natural":
	case "sorted":
		d = d.ReorderLineitem(tpch.OrderingShipdateSorted, *seed+1)
	case "clustered":
		d = d.ReorderLineitem(tpch.OrderingClusteredMonth, *seed+1)
	case "random":
		d = d.ReorderLineitem(tpch.OrderingRandom, *seed+1)
	default:
		fatal(fmt.Errorf("unknown ordering %q", *ordering))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, t := range []*columnar.Table{d.Lineitem, d.Orders, d.Part} {
		write(filepath.Join(*out, t.Name()+".pcol"), t, *blockRows, *compress)
	}
}

// write encodes the table into the PCOL v2 block format and writes it,
// optionally printing the per-column compression report.
func write(path string, t *columnar.Table, blockRows int, compress bool) {
	enc, err := columnar.EncodeTable(t, blockRows)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := columnar.WriteEncoded(f, enc); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d rows, %d columns, %d blocks x %d rows, %.1f -> %.1f MB (%.2fx)\n",
		path, enc.NumRows(), len(enc.Columns()), enc.NumBlocks(), enc.BlockRows(),
		float64(enc.PlainBytes())/(1<<20), float64(enc.EncodedBytes())/(1<<20),
		float64(enc.PlainBytes())/float64(enc.EncodedBytes()))
	if !compress {
		return
	}
	fmt.Printf("  %-18s %-8s %12s %12s %8s\n", "column", "encoding", "plain_bytes", "encoded_bytes", "ratio")
	for _, ec := range enc.Columns() {
		fmt.Printf("  %-18s %-8s %12d %12d %8.2f\n",
			ec.Name(), ec.Encoding(), ec.PlainBytes(), ec.EncodedBytes(),
			float64(ec.PlainBytes())/float64(ec.EncodedBytes()))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpchgen:", err)
	os.Exit(1)
}
