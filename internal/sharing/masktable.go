package sharing

// MaxRetainedMasks bounds a MaskTable. A network names one mask per
// parameterised layer and weight epoch, so the bound is many epochs of
// the Table I network (three layers) or one epoch of a deep one; the
// oldest name goes first, and asking for a forgotten name only costs
// the requester a cold pass.
const MaxRetainedMasks = 32

// MaskTable is the dealer-side memory behind weight-mask reuse: the
// plaintext weight-side masks b of matrix triples, by the name the
// requester gave them, so later input-side pairs (BatchOrder.Against)
// can be dealt against the same b. The zero value is ready to use. It
// is not safe for concurrent use; its owner serialises access.
type MaskTable struct {
	byName map[string]Mat
	order  []string // insertion order, oldest first
}

// Get returns the n×p mask retained under name, or the zero Mat. A
// name retained with another shape counts as unknown: the requester is
// then dealt a fresh mask, as for any name the table never saw (the
// empty name among them — nothing is ever retained under it).
func (t *MaskTable) Get(name string, n, p int) Mat {
	b := t.byName[name]
	if b.Rows != n || b.Cols != p {
		return Mat{}
	}
	return b
}

// Put retains b under name, replacing an earlier mask of that name and
// evicting the oldest name once the table is full. It returns the name
// whose earlier mask is gone as a result — name itself, the evicted
// one, or "" — so the owner can drop deals made against that mask.
func (t *MaskTable) Put(name string, b Mat) (unbound string) {
	if t.byName == nil {
		t.byName = make(map[string]Mat)
	}
	if _, known := t.byName[name]; known {
		unbound = name
	} else {
		if len(t.order) >= MaxRetainedMasks {
			unbound = t.order[0]
			delete(t.byName, unbound)
			t.order = t.order[1:]
		}
		t.order = append(t.order, name)
	}
	t.byName[name] = b
	return unbound
}
