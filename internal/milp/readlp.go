package milp

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"insitu/internal/lp"
)

// lpSections are the section headers WriteLP writes, in the order it writes
// them.
var lpSections = []string{"maximize", "subject to", "bounds", "generals", "sos", "end"}

// ReadLP parses the CPLEX LP subset emitted by WriteLP back into a Problem.
// Together with WriteLP it closes the export loop: a model serialized for an
// external solver can be reparsed and re-solved here, and the differential
// harness in internal/solvercheck asserts the round trip preserves the
// optimum. Variables are numbered in order of first appearance, so the
// reparsed problem may order columns differently from the original; objective
// values, not variable indices, are the comparable quantity.
//
// The grammar is exactly what WriteLP produces, its sections in this order
// (headers in any letter case; the two marked optional may be left out):
//
//	Maximize
//	 obj: + 2 x - 3 y          one row of terms: a sign, a number, a name
//	Subject To
//	 cap: + 1 x + 4 y <= 5     a row of terms, then <=, >= or =, then the RHS
//	Bounds
//	 0 <= x <= 1               or "x >= 0" for no upper bound
//	Generals                   optional: the integer variables, one a line
//	 x
//	SOS                        optional: one S1 set per declared class
//	 s0: S1:: x:1 y:2          the columns of rows 0, 1, ... in turn
//	End
//
// Each set declares the next row a class (lp.Problem.Classes) and must list
// exactly the columns that row has nonzero coefficients on. A row of no terms
// is read only in a model without columns, the one place WriteLP writes it.
// Comment lines start with "\". A model lp.Problem.Validate refuses is an
// error: crossed bounds, a set over a ">=" row, two sets over one column.
func ReadLP(r io.Reader) (*Problem, error) {
	p := &parser{
		prob: NewProblem(&lp.Problem{}),
		vars: map[string]int{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	section, rank := "", -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, `\`) {
			continue
		}
		if k := slices.Index(lpSections, strings.ToLower(line)); k >= 0 {
			if k <= rank {
				return nil, fmt.Errorf("milp: line %d: section %q after %q", lineNo, line, section)
			}
			section, rank = lpSections[k], k
			continue
		}
		var err error
		switch section {
		case "maximize":
			err = p.parseObjective(line)
		case "subject to":
			err = p.parseConstraint(line)
		case "bounds":
			err = p.parseBound(line)
		case "generals":
			for _, name := range strings.Fields(line) {
				p.prob.Integer[p.varIndex(name)] = true
			}
		case "sos":
			err = p.parseSet(line)
		case "end":
			err = fmt.Errorf("content after End")
		default:
			err = fmt.Errorf("content before a section header")
		}
		if err != nil {
			return nil, fmt.Errorf("milp: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("milp: reading LP: %w", err)
	}
	if section != "end" {
		return nil, fmt.Errorf("milp: LP file is missing the End marker")
	}
	if p.empty && p.prob.LP.NumVars() > 0 {
		return nil, fmt.Errorf("milp: LP file has a row of no terms in a model with columns")
	}
	if err := p.prob.LP.Validate(); err != nil {
		return nil, fmt.Errorf("milp: LP file: %w", err)
	}
	return p.prob, nil
}

type parser struct {
	prob  *Problem
	vars  map[string]int
	empty bool // some row had no terms
}

// varIndex returns the column of name, creating a fresh continuous variable
// with default bounds [0, +Inf) on first sight (the Bounds section tightens
// them later).
func (p *parser) varIndex(name string) int {
	if j, ok := p.vars[name]; ok {
		return j
	}
	j := p.prob.AddContVar(0, lp.Inf, name)
	p.vars[name] = j
	return j
}

// splitLabel removes a leading "label:" from an objective or constraint row.
func splitLabel(line string) (label, rest string) {
	if i := strings.Index(line, ":"); i >= 0 {
		return strings.TrimSpace(line[:i]), strings.TrimSpace(line[i+1:])
	}
	return "", line
}

// parseLinear reads a "+ 2 x - 3.5 y" expression into (index, coef) pairs.
// Every term is a sign, a number and a name WriteLP could have written.
func (p *parser) parseLinear(expr string) ([]int, []float64, error) {
	fields := strings.Fields(expr)
	if len(fields)%3 != 0 {
		return nil, nil, fmt.Errorf("expression %q is not a list of sign, number, name terms", expr)
	}
	p.empty = p.empty || len(fields) == 0
	idx := make([]int, 0, len(fields)/3)
	coef := make([]float64, 0, len(fields)/3)
	for k := 0; k < len(fields); k += 3 {
		sign, num, name := fields[k], fields[k+1], fields[k+2]
		if sign != "+" && sign != "-" {
			return nil, nil, fmt.Errorf("term %q %q %q has no sign", sign, num, name)
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("term coefficient %q: %w", num, err)
		}
		if sanitize(name) != name {
			return nil, nil, fmt.Errorf("term variable %q is not a name", name)
		}
		if sign == "-" {
			v = -v
		}
		if j := p.varIndex(name); v != 0 { // a zero term only names its column
			idx, coef = append(idx, j), append(coef, v)
		}
	}
	return idx, coef, nil
}

func (p *parser) parseObjective(line string) error {
	_, rest := splitLabel(line)
	idx, coef, err := p.parseLinear(rest)
	if err != nil {
		return err
	}
	for k, j := range idx {
		p.prob.LP.Objective[j] += coef[k]
	}
	return nil
}

func (p *parser) parseConstraint(line string) error {
	label, rest := splitLabel(line)
	for _, op := range []struct {
		text  string
		sense lp.Sense
	}{{"<=", lp.LE}, {">=", lp.GE}, {"=", lp.EQ}} {
		expr, rhsText, ok := strings.Cut(rest, op.text)
		if !ok {
			continue
		}
		rhs, err := strconv.ParseFloat(strings.TrimSpace(rhsText), 64)
		if err != nil {
			return fmt.Errorf("constraint RHS %q: %w", strings.TrimSpace(rhsText), err)
		}
		idx, coef, err := p.parseLinear(expr)
		if err != nil {
			return err
		}
		p.prob.LP.AddConstraint(idx, coef, op.sense, rhs, label)
		return nil
	}
	return fmt.Errorf("constraint %q has no relational operator", line)
}

// parseBound reads "lo <= x <= hi", or "x >= lo" for no upper bound.
func (p *parser) parseBound(line string) error {
	var name, lo, hi string
	if parts := strings.Split(line, "<="); len(parts) == 3 {
		lo, name, hi = parts[0], parts[1], parts[2]
	} else if parts := strings.Split(line, ">="); len(parts) == 2 {
		name, lo, hi = parts[0], parts[1], "inf"
	} else {
		return fmt.Errorf("bound %q: want lo <= x <= hi or x >= lo", line)
	}
	l, err := strconv.ParseFloat(strings.TrimSpace(lo), 64)
	if err != nil {
		return fmt.Errorf("bound lower %q: %w", lo, err)
	}
	u, err := strconv.ParseFloat(strings.TrimSpace(hi), 64)
	if err != nil {
		return fmt.Errorf("bound upper %q: %w", hi, err)
	}
	j := p.varIndex(strings.TrimSpace(name))
	p.prob.LP.Lower[j], p.prob.LP.Upper[j] = l, u
	return nil
}

// parseSet reads one "s0: S1:: x:1 y:2" set as the declaration that the next
// row is a class: its members must be the columns that row has nonzero
// coefficients on, the ones WriteLP wrote it with.
func (p *parser) parseSet(line string) error {
	head, members, ok := strings.Cut(line, "::")
	if _, kind := splitLabel(head); !ok || kind != "S1" {
		return fmt.Errorf("set %q is not an S1 set", line)
	}
	q := p.prob.LP
	if q.Classes == len(q.Constraints) {
		return fmt.Errorf("set %q past the last row", line)
	}
	var got []int
	for _, m := range strings.Fields(members) {
		name, weight, _ := strings.Cut(m, ":")
		if _, err := strconv.ParseFloat(weight, 64); err != nil {
			return fmt.Errorf("set member %q weight: %w", m, err)
		}
		j, ok := p.vars[name]
		if !ok {
			return fmt.Errorf("set member %q names no variable", name)
		}
		got = append(got, j)
	}
	slices.Sort(got)
	if !slices.Equal(got, q.Constraints[q.Classes].Idx) {
		return fmt.Errorf("set %q does not list the columns of row %d", line, q.Classes)
	}
	q.Classes++
	return nil
}
