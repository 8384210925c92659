package exec

import "sort"

// applyRef is the retired map-based accumulation, kept as the reference the
// property tests pin the open-addressing table against.
func (g *GroupBy) applyRef(acc map[int64]*Group, row int) {
	key := g.GroupCol.Int64At(row)
	gr, ok := acc[key]
	if !ok {
		gr = &Group{Key: key}
		acc[key] = gr
	}
	gr.Sum += g.ValueCol.Float64At(row)
	gr.Count++
}

// groupsOfMap flattens a map-based reference accumulator into key-sorted
// output rows (test-only companion to applyRef).
func groupsOfMap(acc map[int64]*Group) []Group {
	out := make([]Group, 0, len(acc))
	for _, gr := range acc {
		out = append(out, *gr)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}
