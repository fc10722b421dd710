package model

import "fmt"

// CompactStep is the wire-compact form of a Step: the operation as a
// single byte and the entity as an index into an entity table shipped
// separately (once per declared body). It exists so the per-step hot
// path on both transport endpoints can avoid re-parsing and re-sending
// entity names: step frames carry (opByte, entityIndex) pairs and the
// table travels only in open/run/resume.
type CompactStep struct {
	Op  Op
	Idx uint32
}

// CompactTxn renders a declared body in compact form: the entity table
// (the body's distinct entities in first-appearance order) and one
// CompactStep per step indexed against it. The table order is arbitrary
// but must be preserved verbatim by whoever ships it — indices are
// positions, not names.
func CompactTxn(steps []Step) ([]Entity, []CompactStep) {
	if len(steps) == 0 {
		return nil, nil
	}
	table := make([]Entity, 0, len(steps))
	index := make(map[Entity]uint32, len(steps))
	cs := make([]CompactStep, len(steps))
	for i, st := range steps {
		j, ok := index[st.Ent]
		if !ok {
			j = uint32(len(table))
			index[st.Ent] = j
			table = append(table, st.Ent)
		}
		cs[i] = CompactStep{Op: st.Op, Idx: j}
	}
	return table, cs
}

// Resolve expands the compact step against its entity table. An invalid
// op byte or an index past the end of the table is an error — callers
// on the server side surface it as a bad-request refusal without
// executing anything.
func (c CompactStep) Resolve(table []Entity) (Step, error) {
	if !c.Op.Valid() {
		return Step{}, fmt.Errorf("model: compact step op byte %d is not a valid operation", uint8(c.Op))
	}
	if uint64(c.Idx) >= uint64(len(table)) {
		return Step{}, fmt.Errorf("model: compact step entity index %d out of range of %d-entity table", c.Idx, len(table))
	}
	return Step{Op: c.Op, Ent: table[c.Idx]}, nil
}

// ExpandCompact resolves a whole compact body against its table,
// failing on the first malformed step.
func ExpandCompact(table []Entity, cs []CompactStep) ([]Step, error) {
	if len(cs) == 0 {
		return nil, nil
	}
	out := make([]Step, len(cs))
	for i, c := range cs {
		st, err := c.Resolve(table)
		if err != nil {
			return nil, fmt.Errorf("model: compact body step %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}
