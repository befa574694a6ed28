package lb

import "time"

// Mechanism is the endpoint-acquisition strategy: how a dispatch takes a
// free connection endpoint from the chosen backend's pool. The original
// mechanism polls, holding the caller (a web server worker thread) for
// the whole window while the backend's balancer state stays untouched —
// the paper's mechanism-level limitation. The core runs it (Core.Check,
// Walk.Missed); a driver only sleeps where it says.
type Mechanism interface {
	// Name identifies the mechanism in configs and reports.
	Name() string
	// poll returns the sleep between two checks of a backend's pool and
	// how long a poll may run; a zero sleep means one check and no poll.
	poll() (sleep, timeout time.Duration)
}

// Default timing constants from mod_jk: JK_SLEEP_DEF is 100 ms and
// cache_acquire_timeout is 300 ms.
const (
	DefaultAcquireSleep   = 100 * time.Millisecond
	DefaultAcquireTimeout = 300 * time.Millisecond
)

// OriginalGetEndpoint is Algorithm 1: poll the backend's endpoint pool,
// sleeping Sleep between checks, while retry×Sleep < Timeout. The caller
// is blocked for the whole loop and the backend remains Available the
// entire time, so concurrent workers keep choosing the same stalled
// backend and pile up behind it.
type OriginalGetEndpoint struct {
	// Sleep is JK_SLEEP_DEF (DefaultAcquireSleep when not positive);
	// Timeout is cache_acquire_timeout.
	Sleep   time.Duration
	Timeout time.Duration
}

// NewOriginalGetEndpoint returns the stock mechanism with mod_jk's
// default timing.
func NewOriginalGetEndpoint() *OriginalGetEndpoint {
	return &OriginalGetEndpoint{Sleep: DefaultAcquireSleep, Timeout: DefaultAcquireTimeout}
}

// Name implements Mechanism.
func (*OriginalGetEndpoint) Name() string { return "original_get_endpoint" }

func (m *OriginalGetEndpoint) poll() (time.Duration, time.Duration) {
	if m.Sleep <= 0 {
		return DefaultAcquireSleep, m.Timeout
	}
	return m.Sleep, m.Timeout
}

// ModifiedGetEndpoint is the paper's mechanism-level remedy (Section
// IV-C): check once, and on failure return at once so the balancer marks
// the backend Busy and moves on. The conservative choice — treating a
// millibottleneck like a busy server rather than waiting it out — keeps
// decisions fast and avoids distinguishing millibottlenecks from
// permanent failures.
type ModifiedGetEndpoint struct{}

// NewModifiedGetEndpoint returns the remedy mechanism.
func NewModifiedGetEndpoint() *ModifiedGetEndpoint { return &ModifiedGetEndpoint{} }

// Name implements Mechanism.
func (*ModifiedGetEndpoint) Name() string { return "modified_get_endpoint" }

func (*ModifiedGetEndpoint) poll() (time.Duration, time.Duration) { return 0, 0 }

// MechanismNames lists the available mechanism names.
func MechanismNames() []string {
	return []string{"original_get_endpoint", "modified_get_endpoint"}
}
