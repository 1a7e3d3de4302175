package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"slices"

	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Request is one frame decoded on the node's path (Decoder.ReadRequest):
// a BeginProgram arrives in executable form, any other message as Msg.
type Request struct {
	Stream uint32
	// Prog is a BeginProgram's program, built straight from the frame;
	// nil for any other message, and when Refused is set.
	Prog *txn.Exec
	// Refused is the stream-level refusal BeginProgram.Program reports
	// for the same frame: a local declared twice.
	Refused error
	// Msg is a message of any other type; nil for a BeginProgram.
	Msg Msg
}

// ReadRequest reads and decodes one frame like ReadFrame, except that a
// BeginProgram is decoded straight into its executable form: one
// lookup per name occurrence in a per-frame name table, expressions
// compiled over local slots, an op that repeats its predecessor's
// bytes copied, and no strings but one holding the program's distinct
// names. Every frame and limit check, and every error, is ReadFrame's;
// a program BeginProgram.Program would refuse comes back as
// Request.Refused. The §2 rules are left to the engine
// (core.System.RegisterExec).
func (d *Decoder) ReadRequest(r io.Reader) (Request, int, error) {
	payload, n, err := d.readPayload(r)
	if err != nil {
		return Request{}, n, err
	}
	req, err := d.DecodeRequest(payload)
	return req, n, err
}

// DecodeRequest parses one payload like DecodeFrame, with ReadRequest's
// treatment of a BeginProgram. The request never refers to payload.
func (d *Decoder) DecodeRequest(payload []byte) (Request, error) {
	req, err := d.request(payload)
	d.finish(payload)
	return req, err
}

func (d *Decoder) request(payload []byte) (Request, error) {
	stream, t, err := d.header(payload)
	if err != nil {
		return Request{}, err
	}
	req := Request{Stream: stream}
	if t == TBeginProgram {
		err = d.x.program(d)
	} else {
		req.Msg, err = decodeMsg(t, d)
	}
	if err == nil {
		err = d.done()
	}
	if err != nil {
		return Request{}, err
	}
	if t == TBeginProgram {
		req.Prog, req.Refused = d.x.build()
	}
	return req, nil
}

// execBuilder decodes a BeginProgram body into a txn.Exec. Its tables
// describe one frame; their memory serves the next.
type execBuilder struct {
	names nameTable
	// slot and ent hold, by name index, the name's local slot and
	// entity index, or -1.
	slot, ent []int32
	// decl lists the declared locals in slot order: first declarations
	// only, sorted by name once all are read. dup is the first name
	// declared twice, or -1.
	decl []localDecl
	dup  int32
	// ents and undecl map entity indexes, and the slots past the
	// declared ones, to name indexes.
	ents, undecl []int32
	ops          []txn.ExecOp
	code         []value.Instr
	raw          rawOp
	// prev is the last decoded op's encoding. An op whose bytes repeat
	// it is its predecessor's copy: rawOp's checks depend on an op's
	// bytes alone, so bytes that passed them once pass again. Runs of
	// identical ops are common in the benchmark's programs (90 % of a
	// hotspot program's ops, 18 % of a uniform one's, none of a
	// counter's), and a repeat then costs one byte comparison.
	prev []byte
}

type localDecl struct {
	name int32
	val  int64
}

// program decodes a BeginProgram body (the type byte consumed) with the
// checks decodeMsg applies to it, in the same order.
func (b *execBuilder) program(d *Decoder) error {
	name, err := d.stringBytes()
	if err != nil {
		return err
	}
	b.reset(name)
	n, err := d.count(MaxLocals, "locals")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		nb, err := d.stringBytes()
		if err != nil {
			return err
		}
		v, err := d.varint()
		if err != nil {
			return err
		}
		switch id := b.name(nb); {
		case b.slot[id] < 0:
			b.slot[id] = 0 // declared; numbered below
			b.decl = append(b.decl, localDecl{name: id, val: v})
		case b.dup < 0:
			b.dup = id
		}
	}
	byName := func(x, y localDecl) int { return bytes.Compare(b.names.bytes(x.name), b.names.bytes(y.name)) }
	if !slices.IsSortedFunc(b.decl, byName) {
		slices.SortFunc(b.decl, byName)
	}
	for s, l := range b.decl {
		b.slot[l.name] = int32(s)
	}
	if n, err = d.count(MaxOps, "ops"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if k := len(b.prev); k > 0 && bytes.HasPrefix(d.b, b.prev) {
			b.ops = append(b.ops, b.ops[len(b.ops)-1])
			d.b = d.b[k:]
			continue
		}
		rest := d.b
		if err := d.rawOp(&b.raw); err != nil {
			return err
		}
		b.prev = rest[:len(rest)-len(d.b)]
		b.op(&b.raw)
	}
	// A missing trailing Commit is appended, as BeginProgram.Program
	// and txn.Builder.Build do.
	if k := len(b.ops); k == 0 || b.ops[k-1].Kind != txn.OpCommit {
		b.ops = append(b.ops, txn.ExecOp{Kind: txn.OpCommit, Ent: -1, Local: -1})
	}
	return nil
}

func (b *execBuilder) reset(prog []byte) {
	b.names.reset(prog)
	b.slot, b.ent, b.decl, b.dup = b.slot[:0], b.ent[:0], b.decl[:0], -1
	b.ents, b.undecl, b.ops, b.code = b.ents[:0], b.undecl[:0], b.ops[:0], b.code[:0]
	b.prev = nil // it points into a payload buffer the next frame reuses
}

// name returns the index of a name in this frame's table.
func (b *execBuilder) name(nb []byte) int32 {
	id, added := b.names.index(nb)
	if added {
		b.slot = append(b.slot, -1)
		b.ent = append(b.ent, -1)
	}
	return id
}

// local returns a local's slot, giving an undeclared one the next slot
// past the declared.
func (b *execBuilder) local(nb []byte) int32 {
	id := b.name(nb)
	if b.slot[id] < 0 {
		b.slot[id] = int32(len(b.decl) + len(b.undecl))
		b.undecl = append(b.undecl, id)
	}
	return b.slot[id]
}

// entity returns an entity's index, numbering entities in order of
// first use.
func (b *execBuilder) entity(nb []byte) int32 {
	id := b.name(nb)
	if b.ent[id] < 0 {
		b.ent[id] = int32(len(b.ents))
		b.ents = append(b.ents, id)
	}
	return b.ent[id]
}

// op appends the op that rawOp decoded into r.
func (b *execBuilder) op(r *rawOp) {
	op := txn.ExecOp{Kind: r.kind, Ent: -1, Local: -1}
	if r.ent != nil {
		op.Ent = b.entity(r.ent)
	}
	if r.local != nil {
		op.Local = b.local(r.local)
	}
	if r.expr != nil {
		op.From = int32(len(b.code))
		b.compile(r.expr)
		op.To = int32(len(b.code))
	}
	b.ops = append(b.ops, op)
}

// compile appends the code of the expression at the start of enc,
// which exprBytes has checked, and returns the rest of enc.
func (b *execBuilder) compile(enc []byte) []byte {
	switch enc[0] {
	case 0:
		v, k := binary.Varint(enc[1:])
		b.code = append(b.code, value.Instr{Kind: value.IConst, Arg: v})
		return enc[1+k:]
	case 1:
		l, k := binary.Uvarint(enc[1:])
		end := 1 + k + int(l)
		b.code = append(b.code, value.Instr{Kind: value.ILocal, Arg: int64(b.local(enc[1+k : end]))})
		return enc[end:]
	default: // 2: an operator, then both operands
		rest := b.compile(b.compile(enc[2:]))
		b.code = append(b.code, value.Instr{Kind: value.IBinary, Arg: int64(enc[1])})
		return rest
	}
}

// build returns the decoded program, or BeginProgram.Program's refusal
// of it. All its names share one string.
func (b *execBuilder) build() (*txn.Exec, error) {
	all := string(b.names.buf)
	prog := all[:b.names.base]
	if b.dup >= 0 {
		return nil, fmt.Errorf("txn %s: local %q declared twice", prog, b.names.str(all, b.dup))
	}
	nEnt, nDecl := len(b.ents), len(b.decl)
	strs := make([]string, nEnt+nDecl+len(b.undecl))
	for e, id := range b.ents {
		strs[e] = b.names.str(all, id)
	}
	locals := strs[nEnt:]
	init := make([]int64, nDecl)
	for s, l := range b.decl {
		locals[s], init[s] = b.names.str(all, l.name), l.val
	}
	for k, id := range b.undecl {
		locals[nDecl+k] = b.names.str(all, id)
	}
	return &txn.Exec{
		Name:     prog,
		Entities: strs[:nEnt:nEnt],
		Locals:   locals,
		Init:     init,
		Ops:      slices.Clone(b.ops),
		Code:     slices.Clone(b.code),
	}, nil
}

// nameTable numbers one frame's distinct names. It copies each into
// buf once and finds it again through an open-addressed hash index, so
// a warm table allocates nothing.
type nameTable struct {
	buf  []byte  // the program's name, then every distinct name, back to back
	base int     // the length of the program's name
	ends []int32 // ends[i] is where name i ends in buf
	// cells is the hash index: i+1 for name i, 0 for an empty cell. Its
	// length is a power of two, at least twice the name count.
	cells []int32
	seed  maphash.Seed
}

func (t *nameTable) reset(prog []byte) {
	if t.seed == (maphash.Seed{}) {
		t.seed = maphash.MakeSeed()
	}
	t.buf = append(t.buf[:0], prog...)
	t.base = len(prog)
	t.ends = t.ends[:0]
	clear(t.cells)
}

func (t *nameTable) span(i int32) (int, int) {
	start := t.base
	if i > 0 {
		start = int(t.ends[i-1])
	}
	return start, int(t.ends[i])
}

// bytes returns name i.
func (t *nameTable) bytes(i int32) []byte {
	start, end := t.span(i)
	return t.buf[start:end]
}

// str returns name i within all, a string copy of buf.
func (t *nameTable) str(all string, i int32) string {
	start, end := t.span(i)
	return all[start:end]
}

// index returns name's index, adding it if it is new.
func (t *nameTable) index(name []byte) (i int32, added bool) {
	if 2*(len(t.ends)+1) > len(t.cells) {
		t.rehash()
	}
	mask := len(t.cells) - 1
	for h := int(maphash.Bytes(t.seed, name)) & mask; ; h = (h + 1) & mask {
		c := t.cells[h]
		if c == 0 {
			t.buf = append(t.buf, name...)
			t.ends = append(t.ends, int32(len(t.buf)))
			t.cells[h] = int32(len(t.ends))
			return int32(len(t.ends) - 1), true
		}
		if bytes.Equal(t.bytes(c-1), name) {
			return c - 1, false
		}
	}
}

// rehash doubles the index and reinserts every name.
func (t *nameTable) rehash() {
	t.cells = make([]int32, max(32, 2*len(t.cells)))
	mask := len(t.cells) - 1
	for i := range t.ends {
		h := int(maphash.Bytes(t.seed, t.bytes(int32(i)))) & mask
		for t.cells[h] != 0 {
			h = (h + 1) & mask
		}
		t.cells[h] = int32(i + 1)
	}
}
