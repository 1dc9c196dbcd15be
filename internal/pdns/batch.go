package pdns

import "time"

// DefaultBatchRows is the batch size the streaming paths use when the
// caller does not pick one. Large enough to amortise per-batch overhead,
// small enough that a batch of seven 8-byte columns stays cache-friendly.
const DefaultBatchRows = 4096

// RecordBatch is the columnar (struct-of-arrays) form of a run of Records.
// Strings are interned into the batch's Symtab; every other column is a
// parallel slice of plain integers, so appending a row allocates nothing
// once the backing arrays have grown to steady state. Timestamps are held
// as Unix seconds — exactly the TSV wire precision — and materialised back
// into time.Time only by the scalar compatibility views.
//
// A batch and its Symtab belong to one producer goroutine. Reset clears the
// rows but keeps both the backing arrays and the intern table, so symbols
// remain stable across the batches of one stream — that is what lets a
// consumer cache per-symbol work (Aggregator.AddBatch) across flushes.
type RecordBatch struct {
	Syms *Symtab

	FQDN       []Sym
	RType      []RType
	RData      []Sym
	FirstSeen  []int64 // unix seconds
	LastSeen   []int64 // unix seconds
	RequestCnt []int64
	PDate      []Date
}

// NewRecordBatch builds an empty batch with capacity for n rows and a fresh
// intern table.
func NewRecordBatch(n int) *RecordBatch {
	if n <= 0 {
		n = 1024
	}
	return &RecordBatch{
		Syms:       NewSymtab(),
		FQDN:       make([]Sym, 0, n),
		RType:      make([]RType, 0, n),
		RData:      make([]Sym, 0, n),
		FirstSeen:  make([]int64, 0, n),
		LastSeen:   make([]int64, 0, n),
		RequestCnt: make([]int64, 0, n),
		PDate:      make([]Date, 0, n),
	}
}

// Len returns the number of rows in the batch.
func (b *RecordBatch) Len() int { return len(b.FQDN) }

// Reset drops all rows, keeping the backing arrays and the intern table so
// the next fill allocates nothing and previously issued symbols stay valid.
func (b *RecordBatch) Reset() {
	b.FQDN = b.FQDN[:0]
	b.RType = b.RType[:0]
	b.RData = b.RData[:0]
	b.FirstSeen = b.FirstSeen[:0]
	b.LastSeen = b.LastSeen[:0]
	b.RequestCnt = b.RequestCnt[:0]
	b.PDate = b.PDate[:0]
}

// Append adds one row from already-interned symbols.
func (b *RecordBatch) Append(fqdn Sym, t RType, rdata Sym, firstUnix, lastUnix, cnt int64, pdate Date) {
	b.FQDN = append(b.FQDN, fqdn)
	b.RType = append(b.RType, t)
	b.RData = append(b.RData, rdata)
	b.FirstSeen = append(b.FirstSeen, firstUnix)
	b.LastSeen = append(b.LastSeen, lastUnix)
	b.RequestCnt = append(b.RequestCnt, cnt)
	b.PDate = append(b.PDate, pdate)
}

// AppendRecord adds one scalar record, interning its strings. Sub-second
// timestamp precision is truncated, matching the TSV wire format.
func (b *RecordBatch) AppendRecord(r *Record) {
	b.Append(b.Syms.Intern(r.FQDN), r.RType, b.Syms.Intern(r.RData),
		r.FirstSeen.Unix(), r.LastSeen.Unix(), r.RequestCnt, r.PDate)
}

// At materialises row i into a scalar Record. The FQDN and RData strings
// are shared with the intern table, not copied.
func (b *RecordBatch) At(i int, r *Record) {
	r.FQDN = b.Syms.Lookup(b.FQDN[i])
	r.RType = b.RType[i]
	r.RData = b.Syms.Lookup(b.RData[i])
	r.FirstSeen = time.Unix(b.FirstSeen[i], 0).UTC()
	r.LastSeen = time.Unix(b.LastSeen[i], 0).UTC()
	r.RequestCnt = b.RequestCnt[i]
	r.PDate = b.PDate[i]
}

// Set overwrites row i from a scalar record — the inverse of At. Strings are
// re-interned only when they differ from the row's current symbol, so a row
// written back unchanged costs no intern-table lookup; a changed string
// (including the empty FQDN a corrupting hook leaves) gets its symbol from
// the batch's own table, and rowValid judges the row as Validate would.
func (b *RecordBatch) Set(i int, r *Record) {
	if r.FQDN != b.Syms.Lookup(b.FQDN[i]) {
		b.FQDN[i] = b.Syms.Intern(r.FQDN)
	}
	if r.RData != b.Syms.Lookup(b.RData[i]) {
		b.RData[i] = b.Syms.Intern(r.RData)
	}
	b.RType[i] = r.RType
	b.FirstSeen[i] = r.FirstSeen.Unix()
	b.LastSeen[i] = r.LastSeen.Unix()
	b.RequestCnt[i] = r.RequestCnt
	b.PDate[i] = r.PDate
}

// rowValid mirrors Record.Validate with pure integer comparisons: non-empty
// fqdn, non-negative count, last_seen >= first_seen, and pdate equal to
// first_seen's UTC day. Date(firstUnix/86400) is exactly DateOf(FirstSeen)
// for the unix-second timestamps a batch holds — both truncate toward zero.
func (b *RecordBatch) rowValid(i int) bool {
	return b.FQDN[i] != b.emptySym() &&
		b.RequestCnt[i] >= 0 &&
		b.LastSeen[i] >= b.FirstSeen[i] &&
		b.PDate[i] == Date(b.FirstSeen[i]/86400)
}

// emptySym returns the symbol of the empty string if it was interned, or an
// out-of-range sentinel otherwise, so rowValid can test FQDN emptiness
// without resolving the symbol.
func (b *RecordBatch) emptySym() Sym {
	if sym, ok := b.Syms.ids[""]; ok {
		return sym
	}
	return Sym(len(b.Syms.strs)) + 1
}
