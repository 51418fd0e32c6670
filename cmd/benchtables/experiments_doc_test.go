package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// docNumberRE matches a decimal number with optional thousands separators,
// fraction and exponent.
var docNumberRE = regexp.MustCompile(`\d+(?:,\d{3})*(?:\.\d+)?(?:[eE][-+]?\d+)?`)

// docNumber is a number as written in text: its value, and the format and
// precision it was printed at ('e' with the mantissa's decimals, or 'f'
// with the decimals).
type docNumber struct {
	text   string
	value  float64
	format byte
	prec   int
}

// at renders v the way n was printed.
func (n docNumber) at(v float64) string {
	return strconv.FormatFloat(v, n.format, n.prec, 64)
}

// docNumbers extracts every number in s that no letter or digit precedes,
// so "A53" and "E11" are names, not numbers. Thousands commas are dropped.
func docNumbers(s string) []docNumber {
	var nums []docNumber
	for _, loc := range docNumberRE.FindAllStringIndex(s, -1) {
		if r, _ := utf8.DecodeLastRuneInString(s[:loc[0]]); loc[0] > 0 && (unicode.IsLetter(r) || unicode.IsDigit(r)) {
			continue
		}
		text := strings.ReplaceAll(s[loc[0]:loc[1]], ",", "")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			continue
		}
		n := docNumber{text: text, value: v, format: 'f'}
		mantissa := text
		if i := strings.IndexAny(text, "eE"); i >= 0 {
			mantissa, n.format = text[:i], 'e'
		}
		if i := strings.IndexByte(mantissa, '.'); i >= 0 {
			n.prec = len(mantissa) - i - 1
		}
		nums = append(nums, n)
	}
	return nums
}

// tableCells splits a markdown table row into its trimmed cells.
func tableCells(row string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
	for i := range cells {
		cells[i] = strings.TrimSpace(cells[i])
	}
	return cells
}

// TestExperimentsMeasuredCells keeps EXPERIMENTS.md's reported numbers
// honest: in every table under an "## E<n>" heading, each number in a
// column whose header says "Measured" must be a number that the no-flag
// benchtables run prints (testdata/paper.stdout.golden, which
// `make paper-check` pins), rounded to the precision the cell shows it at.
func TestExperimentsMeasuredCells(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "paper.stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	printed := docNumbers(string(golden))
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}

	experimentHeading := regexp.MustCompile(`^## E\d+\b`)
	var section string
	var measured []int // Measured column indices of the current table; nil outside one
	inTable, checked := false, 0
	for i, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = ""
			if experimentHeading.MatchString(line) {
				section = line
			}
		}
		if !strings.HasPrefix(line, "|") {
			inTable, measured = false, nil
			continue
		}
		cells := tableCells(line)
		if !inTable {
			inTable = true
			for col, header := range cells {
				if section != "" && strings.Contains(header, "Measured") {
					measured = append(measured, col)
				}
			}
			continue
		}
		if strings.Trim(line, "|-: ") == "" {
			continue // header separator
		}
		for _, col := range measured {
			if col >= len(cells) {
				continue
			}
			for _, n := range docNumbers(cells[col]) {
				checked++
				want := n.at(n.value)
				found := false
				for _, p := range printed {
					if n.at(p.value) == want {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("EXPERIMENTS.md:%d (%s): Measured cell %q has %s, which the paper run never prints at that precision",
						i+1, section, cells[col], n.text)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no number in any Measured column of an E-section table")
	}
}
