package pdns

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Format selects the on-disk encoding of a PDNS dataset.
type Format int

const (
	// JSONL encodes one JSON object per line (self-describing, slower).
	JSONL Format = iota
	// TSV encodes tab-separated columns in schema order (compact, fast):
	// fqdn, rtype, rdata, first_seen(unix), last_seen(unix), request_cnt, pdate.
	TSV
)

// Writer streams records to an io.Writer in the chosen format. It is the
// export side of the dataset only: the pipeline consumes emission in memory,
// and pdnsgen is the one caller that writes PDNS files.
type Writer struct {
	bw     *bufio.Writer
	format Format
	n      int64
	buf    []byte // reusable TSV line scratch
}

// NewWriter wraps w. Call Flush when done.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), format: format}
}

// Write appends one record.
func (w *Writer) Write(r *Record) error {
	w.n++
	switch w.format {
	case JSONL:
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("pdns: encode: %w", err)
		}
		if _, err := w.bw.Write(b); err != nil {
			return err
		}
		return w.bw.WriteByte('\n')
	case TSV:
		// Render into the reusable scratch buffer: a line costs no string
		// allocation.
		buf := w.buf[:0]
		buf = append(buf, r.FQDN...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(r.RType), 10)
		buf = append(buf, '\t')
		buf = append(buf, r.RData...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, r.FirstSeen.Unix(), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, r.LastSeen.Unix(), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, r.RequestCnt, 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(r.PDate), 10)
		buf = append(buf, '\n')
		w.buf = buf
		_, err := w.bw.Write(buf)
		return err
	default:
		return fmt.Errorf("pdns: unknown format %d", w.format)
	}
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }
