package iss

// CtxDepth exposes the peripheral context depth to the external tests
// of this package.
func CtxDepth(c *Core) int { return len(c.ctxStack) }

// NextDue returns the core's cached event horizon and the earliest Due
// recomputed from its pending notifications (^0 when none).
func NextDue(c *Core) (cached, recomputed uint64) {
	recomputed = ^uint64(0)
	for _, n := range c.notifications {
		recomputed = min(recomputed, n.Due)
	}
	return c.nextDue, recomputed
}
