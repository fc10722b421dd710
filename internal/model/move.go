package model

// This file implements the schedule transformations used in the proof of
// Theorem 1: the transposition of adjacent non-conflicting steps (Lemma 1)
// and the move(S, S', T') operation (Lemma 2). They are exercised by the
// property tests that validate the lemmas empirically.

// Transpose returns the schedule obtained from s by swapping the adjacent
// events at positions i and i+1. It returns ok=false (and s unchanged) if
// the two events belong to the same transaction or their steps conflict —
// the cases in which Lemma 1 does not apply.
func (s Schedule) Transpose(i int) (Schedule, bool) {
	if i < 0 || i+1 >= len(s) {
		return s, false
	}
	a, b := s[i], s[i+1]
	if a.T == b.T || a.S.Conflicts(b.S) {
		return s, false
	}
	out := s.Clone()
	out[i], out[i+1] = out[i+1], out[i]
	return out, true
}

// Move implements move(S, S', T') from Section 3.2: given a schedule s, a
// prefix length prefixLen (the prefix S'), and a transaction t whose steps
// within the prefix form the subsequence T', it returns the permutation of
// s in which the steps of T' are moved to follow all other steps of S',
// preserving (a) the relative order of the steps of T' and (b) the relative
// order of all steps not in T'.
//
// Concretely: events of transaction t occurring in s[:prefixLen] are
// delayed to the end of the prefix region; everything else keeps its order.
func (s Schedule) Move(prefixLen int, t TID) Schedule {
	if prefixLen > len(s) {
		prefixLen = len(s)
	}
	out := make(Schedule, 0, len(s))
	var moved Schedule
	for i := 0; i < prefixLen; i++ {
		if s[i].T == t {
			moved = append(moved, s[i])
		} else {
			out = append(out, s[i])
		}
	}
	out = append(out, moved...)
	out = append(out, s[prefixLen:]...)
	return out
}

// SinkOfPrefix reports whether transaction t is a sink of D(S') where S' is
// the prefix s[:prefixLen], considering only transactions that participate
// in the prefix. This is the hypothesis of Lemma 2.
func (s Schedule) SinkOfPrefix(sys *System, prefixLen int, t TID) bool {
	prefix := s[:prefixLen]
	g := prefix.Graph(sys)
	for _, sink := range g.Sinks(prefix.Participants()) {
		if sink == t {
			return true
		}
	}
	return false
}

// InteractionGraph computes the (undirected, multiplicity-free) interaction
// graph of a system: an edge between two transactions for every pair that
// has at least one pair of conflicting steps. Section 3.1 discusses why
// restricting attention to chordless cycles of this graph — sufficient in
// the static case — fails for dynamic databases.
type InteractionGraph struct {
	N   int
	Adj [][]bool
}

// Interaction builds the interaction graph of the system.
func Interaction(sys *System) *InteractionGraph {
	n := len(sys.Txns)
	g := &InteractionGraph{N: n, Adj: make([][]bool, n)}
	for i := range g.Adj {
		g.Adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if txnsConflict(sys.Txns[i], sys.Txns[j]) {
				g.Adj[i][j] = true
				g.Adj[j][i] = true
			}
		}
	}
	return g
}

func txnsConflict(a, b Txn) bool {
	ents := make(map[Entity][]Op)
	for _, st := range a.Steps {
		ents[st.Ent] = append(ents[st.Ent], st.Op)
	}
	for _, st := range b.Steps {
		for _, op := range ents[st.Ent] {
			if OpsConflict(op, st.Op) {
				return true
			}
		}
	}
	return false
}

// Complete reports whether every pair of distinct transactions interacts.
func (g *InteractionGraph) Complete() bool {
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if !g.Adj[i][j] {
				return false
			}
		}
	}
	return true
}
