package topology

// Leaders returns the leader of each occupied supernode — its
// smallest-ranked member — in supernode-index order. The hierarchical
// all-reduce generalizes this: member j of each group acts as the
// supernode's leader for chunk j of the packed vector. The tests check
// Layout.Leaders against it.
func Leaders(m Mapping, p int) []int {
	groups := Members(m, p)
	out := make([]int, len(groups))
	for i, g := range groups {
		out[i] = g[0]
	}
	return out
}
