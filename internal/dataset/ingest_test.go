package dataset

import (
	"strings"
	"testing"
)

const sampleARFF = `% comment line
@relation weather

@attribute temperature numeric
@attribute 'outlook' {sunny, overcast, rainy}
@attribute humidity REAL
@data
30.5, sunny, 80
?, overcast, 75
25.0, rainy, ?
22.1, sunny, 60
`

func TestLoadARFF(t *testing.T) {
	cols, err := LoadARFF(strings.NewReader(sampleARFF))
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("%d columns", len(cols))
	}
	if cols[0].Kind != Numeric || cols[1].Kind != Categorical || cols[2].Kind != Numeric {
		t.Fatal("kinds wrong")
	}
	if cols[0].Name != "temperature" || cols[1].Name != "outlook" {
		t.Fatalf("names wrong: %q %q", cols[0].Name, cols[1].Name)
	}
	if len(cols[0].Values) != 4 {
		t.Fatalf("%d rows", len(cols[0].Values))
	}
	if !cols[0].Missing[1] || cols[0].Missing[0] {
		t.Fatal("numeric missing flags wrong")
	}
	if cols[1].Labels[2] != "rainy" {
		t.Fatalf("label = %q", cols[1].Labels[2])
	}
	if cols[2].Missing == nil || !cols[2].Missing[2] {
		t.Fatal("humidity missing flag wrong")
	}
}

func TestLoadARFFErrors(t *testing.T) {
	cases := map[string]string{
		"no data section":   "@relation x\n@attribute a numeric\n",
		"data before attrs": "@relation x\n@data\n1\n",
		"bad type":          "@attribute a date\n@data\n1\n",
		"sparse row":        "@attribute a numeric\n@data\n{0 1}\n",
		"ragged row":        "@attribute a numeric\n@attribute b numeric\n@data\n1\n",
		"bad numeric":       "@attribute a numeric\n@data\nxyz\n",
		"unterminated set":  "@attribute a {x, y\n@data\nx\n",
		"late attribute":    "@attribute a numeric\n@data\n1\n@attribute b numeric\n",
		"stray content":     "hello\n@data\n",
	}
	for name, in := range cases {
		if _, err := LoadARFF(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const sampleCSV = `age,city,income
25,oslo,50000
31,bergen,?
?,oslo,61000
44,tromso,70000
`

func TestLoadCSV(t *testing.T) {
	cols, err := LoadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("%d columns", len(cols))
	}
	if cols[0].Kind != Numeric || cols[1].Kind != Categorical || cols[2].Kind != Numeric {
		t.Fatalf("kinds wrong: %v %v %v", cols[0].Kind, cols[1].Kind, cols[2].Kind)
	}
	if !cols[0].Missing[2] {
		t.Fatal("age row 3 should be missing")
	}
	if cols[1].Labels[3] != "tromso" {
		t.Fatal("labels wrong")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader("only_header\n")); err == nil {
		t.Fatal("header-only csv accepted")
	}
	if _, err := LoadCSV(strings.NewReader(",b\n1,2\n")); err == nil {
		t.Fatal("empty column name accepted")
	}
	if _, err := LoadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("ragged csv accepted")
	}
}

func TestIngestEndToEnd(t *testing.T) {
	cols, err := LoadARFF(strings.NewReader(sampleARFF))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Ingest(cols, BooleanizeOptions{Bins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.Items(Left) == 0 || d.Items(Right) == 0 {
		t.Fatal("a view is empty")
	}
	// Total items: 2 temperature bins + 3 outlooks + 2 humidity bins.
	if d.Items(Left)+d.Items(Right) != 7 {
		t.Fatalf("items = %d + %d, want 7", d.Items(Left), d.Items(Right))
	}
}
