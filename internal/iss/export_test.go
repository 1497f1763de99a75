package iss

// CtxDepth exposes the peripheral context depth to the external tests
// of this package.
func CtxDepth(c *Core) int { return len(c.ctxStack) }
