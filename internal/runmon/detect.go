package runmon

// EWMA is an exponentially weighted moving average of a residual stream,
// the smoothed "how far off is the model right now" signal. The first
// observation seeds the mean directly so early values are not dragged
// toward zero.
// Its smoothing weight is ewmaAlpha.
type EWMA struct {
	mean float64
	n    int
}

// Observe folds x into the average and returns the updated value.
func (e *EWMA) Observe(x float64) float64 {
	e.n++
	if e.n == 1 {
		e.mean = x
		return e.mean
	}
	e.mean += ewmaAlpha * (x - e.mean)
	return e.mean
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.mean }

// N returns the number of observations folded in.
func (e *EWMA) N() int { return e.n }

// CUSUM is a two-sided cumulative-sum change detector over a residual
// stream (Page 1954, the standard tabular form): the positive statistic
//
//	g+ ← max(0, g+ + x − k)
//
// accumulates sustained positive drift (the run slower than predicted) and
// the negative statistic mirrors it for speedups. Slack k absorbs noise —
// residuals within ±k never accumulate — and an alarm fires when either
// statistic crosses the threshold h. Unlike a plain EWMA cut-off, CUSUM
// detects both abrupt jumps and slow creep: any sustained shift past k
// grows one statistic linearly until it crosses h. k is cusumSlack and h is
// cusumThreshold.
type CUSUM struct {
	pos, neg float64
}

// Observe folds residual x in and reports whether an alarm level is crossed
// after the update.
func (c *CUSUM) Observe(x float64) bool {
	c.pos += x - cusumSlack
	if c.pos < 0 {
		c.pos = 0
	}
	c.neg += -x - cusumSlack
	if c.neg < 0 {
		c.neg = 0
	}
	return c.Alarm()
}

// Alarm reports whether either statistic currently exceeds the threshold.
func (c *CUSUM) Alarm() bool {
	return c.pos > cusumThreshold || c.neg > cusumThreshold
}

// Stat returns the positive (slow) and negative (fast) statistics.
func (c *CUSUM) Stat() (pos, neg float64) { return c.pos, c.neg }

// Direction classifies the alarm: "slow" when the positive statistic
// dominates (observed > predicted), "fast" otherwise.
func (c *CUSUM) Direction() string {
	if c.pos >= c.neg {
		return "slow"
	}
	return "fast"
}

// Reset clears both statistics (a replanner does this after adapting).
func (c *CUSUM) Reset() { c.pos, c.neg = 0, 0 }
