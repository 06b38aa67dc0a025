package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"

	"smartcrawl/internal/tokenize"
)

// Table is a named relation: a schema (attribute names) plus records whose
// Values align with the schema positionally.
type Table struct {
	Name    string
	Schema  []string
	Records []*Record
}

// NewTable returns an empty table with the given schema.
func NewTable(name string, schema []string) *Table {
	return &Table{Name: name, Schema: append([]string(nil), schema...)}
}

// Append adds a row and assigns it the next record ID. It panics if the row
// width does not match the schema, which would silently misalign attributes
// downstream.
func (t *Table) Append(values ...string) *Record {
	if len(values) != len(t.Schema) {
		panic(fmt.Sprintf("relational: row width %d != schema width %d",
			len(values), len(t.Schema)))
	}
	r := &Record{ID: len(t.Records), Values: append([]string(nil), values...)}
	t.Records = append(t.Records, r)
	return r
}

// Len returns the number of records.
func (t *Table) Len() int { return len(t.Records) }

// Col returns the index of the named attribute, or -1.
func (t *Table) Col(name string) int {
	for i, s := range t.Schema {
		if strings.EqualFold(s, name) {
			return i
		}
	}
	return -1
}

// Project returns a new table containing only the named columns, in the
// given order. Unknown column names produce an error rather than silent
// empty columns.
func (t *Table) Project(cols ...string) (*Table, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := t.Col(c)
		if j < 0 {
			return nil, fmt.Errorf("relational: no column %q in table %q", c, t.Name)
		}
		idx[i] = j
	}
	out := NewTable(t.Name, cols)
	for _, r := range t.Records {
		row := make([]string, len(idx))
		for i, j := range idx {
			row[i] = r.Value(j)
		}
		out.Append(row...)
	}
	return out, nil
}

// Dedup removes duplicate records, where duplicates are records with equal
// normalized documents (footnote 3: local duplicates are removed before
// matching, or treated as one record). The first occurrence is kept and
// record IDs are reassigned densely. It returns the number of rows dropped.
func (t *Table) Dedup(tk *tokenize.Tokenizer) int {
	seen := make(map[string]bool, len(t.Records))
	kept := t.Records[:0]
	dropped := 0
	for _, r := range t.Records {
		key := strings.Join(tk.NormalizeQuery(r.Document()), " ")
		if seen[key] {
			dropped++
			continue
		}
		seen[key] = true
		kept = append(kept, r)
	}
	t.Records = kept
	for i, r := range t.Records {
		r.ID = i
	}
	return dropped
}

// AddColumn appends a new attribute with the given default value for all
// existing rows and returns its column index. Used by the enrichment layer
// to attach crawled attributes.
func (t *Table) AddColumn(name, def string) int {
	t.Schema = append(t.Schema, name)
	for _, r := range t.Records {
		r.Values = append(r.Values, def)
		r.InvalidateTokens()
	}
	return len(t.Schema) - 1
}

// WriteCSV writes the table (header row first) to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema); err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := cw.Write(r.Values); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadFile loads a table from a CSV file or, for .jsonl paths, from JSON
// Lines.
func ReadFile(path, name string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var t *Table
	if strings.HasSuffix(path, ".jsonl") {
		t, err = ReadJSONL(name, f)
	} else {
		t, err = ReadCSV(name, f)
	}
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return t, nil
}

// ReadCSV reads a table (header row first) from r.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // tolerate ragged rows; Append re-checks width
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relational: reading CSV header: %w", err)
	}
	t := NewTable(name, header)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relational: reading CSV row: %w", err)
		}
		// Pad or trim ragged rows to schema width.
		for len(row) < len(header) {
			row = append(row, "")
		}
		t.Append(row[:len(header)]...)
	}
	return t, nil
}
