// Package timeseries is the simulation-clock sampler. Recorder is the only
// periodic pull sampler in the simulator; a run uses two: the flight
// recorder, ring-capped at a fine cadence, and the telemetry report series
// (telemetry.RunData.Series), unbounded at a coarse one.
//
// The flight recorder keeps bounded, deterministic time series of per-entity fabric state (queue depths, link
// utilization, ECN-mark and drop rates), Hermes path-state occupancy, and
// transport aggregates, plus an event log of Hermes path-state transitions
// with their cause. It is the temporal complement of internal/telemetry
// (end-of-run aggregates) and internal/trace (per-flow spans): the layer
// that answers "what did the fabric look like at t, and when did Algorithm 1
// change its mind".
//
// Everything is driven by the virtual clock, so a recording is a pure
// function of (config, seed); under a ring cap it takes O(cap) memory no
// matter how long the run is.
package timeseries

import "sort"

// Columns is a set of named float64 series aligned on shared sample
// instants, with an optional ring cap. When the cap is reached the oldest
// row is discarded for each new one and Truncated counts the loss; with
// Cap <= 0 rows accumulate without bound (the telemetry report series).
//
// Columns created after rows already exist are zero-backfilled so that
// every column always has exactly Len() values — one per retained instant —
// including under ring truncation.
type Columns struct {
	// Cap bounds the retained rows (<= 0 = unbounded). Set before the
	// first Append; changing it later is not supported.
	Cap int

	times []int64
	names []string // registration order
	index map[string]int
	cols  [][]float64

	head      int // ring start, meaningful once saturated
	truncated int
}

// Len returns the number of retained rows.
func (c *Columns) Len() int { return len(c.times) }

// Truncated returns the number of rows discarded to honor Cap.
func (c *Columns) Truncated() int { return c.truncated }

// saturated reports whether the ring is full and appends now overwrite.
func (c *Columns) saturated() bool { return c.Cap > 0 && len(c.times) == c.Cap }

// cur returns the storage index of the most recently appended row.
func (c *Columns) cur() int {
	if c.saturated() {
		return (c.head + c.Cap - 1) % c.Cap
	}
	return len(c.times) - 1
}

// Append opens a new row at instant at, zero-filled across every column.
// Call Put afterwards to set the row's values.
func (c *Columns) Append(at int64) {
	if c.saturated() {
		// Overwrite the oldest slot and advance the ring start.
		slot := c.head
		c.times[slot] = at
		for _, col := range c.cols {
			col[slot] = 0
		}
		c.head = (c.head + 1) % c.Cap
		c.truncated++
		return
	}
	c.times = append(c.times, at)
	for i := range c.cols {
		c.cols[i] = append(c.cols[i], 0)
	}
}

// Put sets the named column's value for the current (most recent) row,
// creating the column zero-backfilled over all earlier retained rows on
// first use. Put before any Append is a no-op.
func (c *Columns) Put(name string, v float64) {
	if len(c.times) == 0 {
		return
	}
	i, ok := c.index[name]
	if !ok {
		if c.index == nil {
			c.index = map[string]int{}
		}
		i = len(c.cols)
		c.index[name] = i
		c.names = append(c.names, name)
		// Match the times geometry exactly: same length, same ring origin.
		c.cols = append(c.cols, make([]float64, len(c.times)))
	}
	c.cols[i][c.cur()] = v
}

// Times returns the retained sample instants in chronological order.
func (c *Columns) Times() []int64 {
	n := len(c.times)
	out := make([]int64, n)
	for i := range out {
		out[i] = c.times[(c.head+i)%n]
	}
	return out
}

// Names returns the column names in sorted order (the deterministic
// iteration order for exports).
func (c *Columns) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	sort.Strings(out)
	return out
}

// Series returns the named column in chronological order, or nil when the
// column does not exist.
func (c *Columns) Series(name string) []float64 {
	i, ok := c.index[name]
	if !ok {
		return nil
	}
	col := c.cols[i]
	n := len(col)
	out := make([]float64, n)
	for j := range out {
		out[j] = col[(c.head+j)%n]
	}
	return out
}
