package pdns

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file is the test-only reference decoder for the Writer's output. The
// pipeline reads no PDNS files (its input is in-memory emission), so the
// decoder lives here as the oracle that pins the bytes the Writer produces:
// every record written must decode back to itself.

var errColumns = errors.New("wrong column count")

// parseTSV decodes one TSV line in schema order: fqdn, rtype, rdata,
// first_seen(unix), last_seen(unix), request_cnt, pdate. Field errors are
// wrapped with the field name.
func parseTSV(line string, rec *Record) error {
	var cols [7]string
	n := 0
	for n < 6 {
		i := strings.IndexByte(line, '\t')
		if i < 0 {
			return errColumns
		}
		cols[n], line = line[:i], line[i+1:]
		n++
	}
	cols[6] = line
	rec.FQDN = cols[0]
	rt, err := strconv.Atoi(cols[1])
	if err != nil {
		return fmt.Errorf("rtype: %w", err)
	}
	rec.RType = RType(rt)
	rec.RData = cols[2]
	fs, err := strconv.ParseInt(cols[3], 10, 64)
	if err != nil {
		return fmt.Errorf("first_seen: %w", err)
	}
	ls, err := strconv.ParseInt(cols[4], 10, 64)
	if err != nil {
		return fmt.Errorf("last_seen: %w", err)
	}
	rec.FirstSeen = time.Unix(fs, 0).UTC()
	rec.LastSeen = time.Unix(ls, 0).UTC()
	rec.RequestCnt, err = strconv.ParseInt(cols[5], 10, 64)
	if err != nil {
		return fmt.Errorf("request_cnt: %w", err)
	}
	pd, err := strconv.Atoi(cols[6])
	if err != nil {
		return fmt.Errorf("pdate: %w", err)
	}
	rec.PDate = Date(pd)
	return nil
}

// decodeAll decodes every non-blank line of data: TSV through parseTSV,
// JSONL through json.Unmarshal. The first malformed line is an error.
func decodeAll(data []byte, format Format) ([]Record, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []Record
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		var err error
		switch format {
		case TSV:
			err = parseTSV(sc.Text(), &rec)
		case JSONL:
			err = json.Unmarshal(sc.Bytes(), &rec)
		default:
			err = fmt.Errorf("unknown format %d", format)
		}
		if err != nil {
			return out, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}
