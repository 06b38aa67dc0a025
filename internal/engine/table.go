package engine

import (
	"io"

	"smartcrawl/internal/relational"
)

// LoadTable loads a CSV table or, for .jsonl paths, JSON Lines.
func LoadTable(path, name string) (*relational.Table, error) {
	return relational.ReadFile(path, name)
}

// WriteTable writes t as CSV, or as JSON Lines when jsonl is set.
func WriteTable(w io.Writer, t *relational.Table, jsonl bool) error {
	if jsonl {
		return t.WriteJSONL(w)
	}
	return t.WriteCSV(w)
}
