package milp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"insitu/internal/lp"
)

// ReadLP parses the CPLEX LP subset emitted by WriteLP back into a Problem.
// Together with WriteLP it closes the export loop: a model serialized for an
// external solver can be reparsed and re-solved here, and the differential
// harness in internal/solvercheck asserts the round trip preserves the
// optimum. Variables are numbered in order of first appearance, so the
// reparsed problem may order columns differently from the original; objective
// values, not variable indices, are the comparable quantity.
//
// The supported grammar is exactly what WriteLP produces: one "Maximize"
// section with a single objective row, "Subject To" rows, a "Bounds" section
// with "lo <= x <= hi" or "x >= lo" lines, an optional "Generals" section
// naming the integer variables, and "End". Comment lines start with "\".
func ReadLP(r io.Reader) (*Problem, error) {
	p := &parser{
		prob: NewProblem(&lp.Problem{}),
		vars: map[string]int{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, `\`) {
			continue
		}
		switch strings.ToLower(line) {
		case "maximize", "minimize":
			if strings.ToLower(line) == "minimize" {
				return nil, fmt.Errorf("milp: line %d: minimize objectives are not supported (WriteLP always maximizes)", lineNo)
			}
			section = "objective"
			continue
		case "subject to", "st", "s.t.":
			section = "constraints"
			continue
		case "bounds":
			section = "bounds"
			continue
		case "generals", "general", "integers":
			section = "generals"
			continue
		case "binary", "binaries":
			section = "binaries"
			continue
		case "end":
			section = "end"
			continue
		}
		var err error
		switch section {
		case "objective":
			err = p.parseObjective(line)
		case "constraints":
			err = p.parseConstraint(line)
		case "bounds":
			err = p.parseBound(line)
		case "generals", "binaries":
			err = p.parseIntegral(line, section == "binaries")
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
	return p.prob, nil
}

type parser struct {
	prob *Problem
	vars map[string]int
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

// parseLinear reads a "+ 2 x - 3.5 y"-style expression into (index, coef)
// pairs. Coefficients are optional ("+ x" means +1) to be permissive with
// hand-edited files, though WriteLP always emits them.
func (p *parser) parseLinear(expr string) ([]int, []float64, error) {
	fields := strings.Fields(expr)
	var idx []int
	var coef []float64
	sign := 1.0
	pending := math.NaN() // parsed coefficient waiting for its variable
	for _, f := range fields {
		switch f {
		case "+":
			sign = 1
			continue
		case "-":
			sign = -1
			continue
		}
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			if !math.IsNaN(pending) {
				return nil, nil, fmt.Errorf("two consecutive numbers %q in expression", f)
			}
			pending = sign * v
			sign = 1
			continue
		}
		c := sign
		if !math.IsNaN(pending) {
			c = pending
		}
		idx = append(idx, p.varIndex(f))
		coef = append(coef, c)
		pending = math.NaN()
		sign = 1
	}
	if !math.IsNaN(pending) {
		return nil, nil, fmt.Errorf("dangling coefficient at end of expression")
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
	var sense lp.Sense
	var op string
	switch {
	case strings.Contains(rest, "<="):
		sense, op = lp.LE, "<="
	case strings.Contains(rest, ">="):
		sense, op = lp.GE, ">="
	case strings.Contains(rest, "="):
		sense, op = lp.EQ, "="
	default:
		return fmt.Errorf("constraint %q has no relational operator", line)
	}
	parts := strings.SplitN(rest, op, 2)
	rhs, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return fmt.Errorf("constraint RHS %q: %w", strings.TrimSpace(parts[1]), err)
	}
	idx, coef, err := p.parseLinear(parts[0])
	if err != nil {
		return err
	}
	p.prob.LP.AddConstraint(idx, coef, sense, rhs, label)
	return nil
}

func (p *parser) parseBound(line string) error {
	// Two shapes: "lo <= x <= hi" and "x >= lo" (infinite upper bound).
	if strings.Contains(line, "<=") {
		parts := strings.Split(line, "<=")
		if len(parts) != 3 {
			return fmt.Errorf("bound %q: want lo <= x <= hi", line)
		}
		lo, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return fmt.Errorf("bound lower %q: %w", parts[0], err)
		}
		hi, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return fmt.Errorf("bound upper %q: %w", parts[2], err)
		}
		j := p.varIndex(strings.TrimSpace(parts[1]))
		p.prob.LP.Lower[j], p.prob.LP.Upper[j] = lo, hi
		return nil
	}
	if strings.Contains(line, ">=") {
		parts := strings.Split(line, ">=")
		if len(parts) != 2 {
			return fmt.Errorf("bound %q: want x >= lo", line)
		}
		lo, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return fmt.Errorf("bound lower %q: %w", parts[1], err)
		}
		j := p.varIndex(strings.TrimSpace(parts[0]))
		p.prob.LP.Lower[j] = lo
		return nil
	}
	return fmt.Errorf("unrecognized bound line %q", line)
}

func (p *parser) parseIntegral(line string, binary bool) error {
	for _, name := range strings.Fields(line) {
		j := p.varIndex(name)
		p.prob.Integer[j] = true
		if binary {
			p.prob.LP.Lower[j], p.prob.LP.Upper[j] = 0, 1
		}
	}
	return nil
}
