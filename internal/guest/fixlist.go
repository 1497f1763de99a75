package guest

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseFixList parses a comma-separated list of seeded bug numbers
// ("2,5") into the fixed-bug bitmask the tcpip and tcpip-session
// builders take. Entries outside [lo, hi] — the guest's own bug
// numbering — are errors. The empty string is an empty mask.
func ParseFixList(fixList string, lo, hi int) (uint, error) {
	var fixed uint
	if fixList == "" {
		return 0, nil
	}
	for _, s := range strings.Split(fixList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < lo || n > hi {
			return 0, fmt.Errorf("bad -fix entry %q", s)
		}
		fixed |= 1 << (n - 1)
	}
	return fixed, nil
}
