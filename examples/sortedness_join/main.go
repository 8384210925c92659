// Sortedness and join order (§5.5-§5.6): an expensive selection combined
// with a foreign-key join should run join-first while the data is sorted
// (build-side accesses are nearly sequential) and selection-first once
// shuffling destroys that locality. Only cache-miss counters — not tuple
// counts — reveal which side of the break-even point the data is on.
package main

import (
	"fmt"
	"log"

	"progopt"
)

func main() {
	eng, err := progopt.New(progopt.Config{VectorSize: 1024})
	if err != nil {
		log.Fatal(err)
	}
	base, err := eng.GenerateTPCH(100_000, 9, progopt.OrderNatural)
	if err != nil {
		log.Fatal(err)
	}

	windows := []struct {
		label string
		w     int
	}{
		{"sorted (1T)", 1},
		{"cache line", 8},
		{"L1-sized", 256},
		{"L2-sized", 2048},
		{"random (Mem)", 100_000},
	}

	fmt.Println("sortedness     sel_first_ms  join_first_ms  winner       join locality")
	fmt.Println("---------------------------------------------------------------------")
	for _, win := range windows {
		ds := base.ShuffleWindow(win.w, int64(win.w))
		// One expensive predicate (FilterCost models a string match / UDF)
		// and an FK join into orders with a 50%-selective pushed-down date
		// bound — declared as one plan, reordered freely by WithOrder.
		q, err := eng.Compile(ds, progopt.Scan("lineitem").
			FilterCost("l_quantity", progopt.CmpLE, 25, 40).
			JoinOn("lineitem", "l_orderkey", "orders").
			Filter("o_orderdate", progopt.CmpLE, int64(ds.ShipdateCutoff(0.5))))
		if err != nil {
			log.Fatal(err)
		}
		selFirst, err := eng.Exec(q, progopt.ExecOptions{Mode: progopt.ModeFixed})
		if err != nil {
			log.Fatal(err)
		}
		joinQ, err := q.WithOrder([]int{1, 0})
		if err != nil {
			log.Fatal(err)
		}
		joinFirst, rep, err := eng.DetectJoinLocality(joinQ, ds, "orders")
		if err != nil {
			log.Fatal(err)
		}
		winner := "selection"
		if joinFirst.Millis < selFirst.Millis {
			winner = "join"
		}
		fmt.Printf("%-13s  %10.2f   %10.2f    %-10s  %s (ratio %.2f)\n",
			win.label, selFirst.Millis, joinFirst.Millis, winner, rep.Class, rep.Ratio)
	}
}
