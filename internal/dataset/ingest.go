package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file ingests the raw attribute-value formats the paper's source
// repositories use — ARFF (UCI/MULAN) and headered CSV — into Columns,
// which Booleanize and SplitBalanced then turn into a two-view dataset.
// Together they reproduce the full preprocessing path of §6: parse →
// discretize numerics into equal-height bins → one item per categorical
// value → split items into two views of similar density.

// LoadARFF parses a dense ARFF file: @attribute declarations (numeric /
// real / integer or a nominal {a,b,c} set; string attributes are treated
// as categorical) followed by @data rows. '?' marks missing values.
// Sparse ARFF rows ({idx value, ...}) are not supported.
func LoadARFF(r io.Reader) ([]*Column, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var cols []*Column
	inData := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		lower := strings.ToLower(text)
		switch {
		case strings.HasPrefix(lower, "@relation"):
			// Name only; ignored.
		case strings.HasPrefix(lower, "@attribute"):
			if inData {
				return nil, fmt.Errorf("arff: line %d: @attribute after @data", line)
			}
			col, err := parseARFFAttribute(text)
			if err != nil {
				return nil, fmt.Errorf("arff: line %d: %v", line, err)
			}
			cols = append(cols, col)
		case strings.HasPrefix(lower, "@data"):
			if len(cols) == 0 {
				return nil, fmt.Errorf("arff: line %d: @data before any @attribute", line)
			}
			inData = true
		default:
			if !inData {
				return nil, fmt.Errorf("arff: line %d: unexpected content %q before @data", line, text)
			}
			if strings.HasPrefix(text, "{") {
				return nil, fmt.Errorf("arff: line %d: sparse ARFF rows are not supported", line)
			}
			if err := appendARFFRow(cols, text); err != nil {
				return nil, fmt.Errorf("arff: line %d: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inData {
		return nil, fmt.Errorf("arff: missing @data section")
	}
	return cols, nil
}

func parseARFFAttribute(text string) (*Column, error) {
	// @attribute <name> <type>; the name may be quoted.
	rest := strings.TrimSpace(text[len("@attribute"):])
	if rest == "" {
		return nil, fmt.Errorf("missing attribute name")
	}
	var name string
	if rest[0] == '\'' || rest[0] == '"' {
		q := rest[0]
		end := strings.IndexByte(rest[1:], q)
		if end < 0 {
			return nil, fmt.Errorf("unterminated quoted name")
		}
		name = rest[1 : 1+end]
		rest = strings.TrimSpace(rest[2+end:])
	} else {
		fields := strings.Fields(rest)
		name = fields[0]
		rest = strings.TrimSpace(rest[len(fields[0]):])
	}
	if name == "" || rest == "" {
		return nil, fmt.Errorf("malformed attribute declaration")
	}
	switch typ := strings.ToLower(rest); {
	case typ == "numeric" || typ == "real" || typ == "integer":
		return &Column{Name: name, Kind: Numeric}, nil
	case strings.HasPrefix(rest, "{"):
		if !strings.HasSuffix(rest, "}") {
			return nil, fmt.Errorf("unterminated nominal set for %q", name)
		}
		return &Column{Name: name, Kind: Categorical}, nil
	case typ == "string":
		return &Column{Name: name, Kind: Categorical}, nil
	default:
		return nil, fmt.Errorf("unsupported attribute type %q for %q", rest, name)
	}
}

func appendARFFRow(cols []*Column, text string) error {
	values, err := splitARFFValues(text)
	if err != nil {
		return err
	}
	if len(values) != len(cols) {
		return fmt.Errorf("row has %d values, want %d", len(values), len(cols))
	}
	return appendRow(cols, values)
}

// splitARFFValues splits a comma-separated row honouring single quotes.
func splitARFFValues(text string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c == '\'':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in row %q", text)
	}
	out = append(out, strings.TrimSpace(cur.String()))
	return out, nil
}

// appendRow appends one parsed value per column.
func appendRow(cols []*Column, values []string) error {
	for i, col := range cols {
		v := values[i]
		missing := v == "?" || v == ""
		switch col.Kind {
		case Numeric:
			var parsed float64
			if !missing {
				var err error
				if parsed, err = strconv.ParseFloat(v, 64); err != nil {
					return fmt.Errorf("column %q: bad numeric value %q", col.Name, v)
				}
			}
			col.Values = append(col.Values, parsed)
			col.Missing = append(col.Missing, missing)
		case Categorical:
			if missing {
				v = ""
			}
			col.Labels = append(col.Labels, v)
		}
	}
	return nil
}

// LoadCSV parses a headered CSV file and infers column kinds: a column
// where every non-missing value parses as a number is Numeric, otherwise
// Categorical. '?' and empty cells mark missing values.
func LoadCSV(r io.Reader) ([]*Column, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv: %v", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("csv: need a header row and at least one data row")
	}
	header := records[0]
	rows := records[1:]

	cols := make([]*Column, len(header))
	for c, name := range header {
		if strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("csv: empty name for column %d", c+1)
		}
		numeric := true
		seen := false
		for _, row := range rows {
			v := strings.TrimSpace(row[c])
			if v == "" || v == "?" {
				continue
			}
			seen = true
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				numeric = false
				break
			}
		}
		kind := Categorical
		if numeric && seen {
			kind = Numeric
		}
		cols[c] = &Column{Name: strings.TrimSpace(name), Kind: kind}
	}
	for _, row := range rows {
		values := make([]string, len(row))
		for i, v := range row {
			values[i] = strings.TrimSpace(v)
		}
		if err := appendRow(cols, values); err != nil {
			return nil, fmt.Errorf("csv: %v", err)
		}
	}
	return cols, nil
}

// Ingest runs the full preprocessing pipeline of §6 on raw columns:
// Booleanize (equal-height bins, one item per categorical value) and
// split the items into two density-balanced views.
func Ingest(cols []*Column, opt BooleanizeOptions) (*Dataset, error) {
	bt, err := Booleanize(cols, opt)
	if err != nil {
		return nil, err
	}
	return SplitBalanced(bt)
}
