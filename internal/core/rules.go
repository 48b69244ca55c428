package core

import (
	"strconv"
	"strings"
	"time"
)

// Severity grades alerts.
type Severity int

// Severities.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityCritical
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// Step is one element of a rule's event pattern.
type Step struct {
	// Type is the event type this step matches.
	Type EventType
	// Point, when non-empty, requires the event to carry this capture
	// point (Event.Point) — the DSL's "@point" qualifier. Cross-point
	// rules use it to demand evidence from a specific vantage.
	Point string
	// Where, when non-nil, further constrains the event.
	Where func(e Event) bool
}

// stepMatches reports whether one event satisfies one step.
func stepMatches(step Step, e Event) bool {
	if step.Type != e.Type {
		return false
	}
	if step.Point != "" && step.Point != e.Point {
		return false
	}
	return step.Where == nil || step.Where(e)
}

// KeyByDetail is the Rule.KeyBy value that correlates on Event.Detail
// instead of Event.Session (the DSL's "keyby detail"). Cross-point rules
// use it when the shared identity lives in the detail — e.g. the AOR of
// a REGISTER 200, whose Call-ID differs per vantage.
const KeyByDetail = "detail"

// Rule is a detection rule: a pattern of events within one session. Rules
// with one step are simple triggers; multi-step rules express the paper's
// stateful, cross-protocol sequences (e.g. billing fraud's three events).
type Rule struct {
	Name        string
	Description string
	Severity    Severity
	// Steps is the event pattern. With Unordered false the events must
	// arrive in order; with true, in any order (one event per step).
	Steps     []Step
	Unordered bool
	// Window bounds the time from the first matched event to the last
	// (0 = unbounded).
	Window time.Duration
	// CrossProtocol and Stateful document the rule's Table 1
	// classification.
	CrossProtocol bool
	Stateful      bool
	// Absent, when non-empty, inverts the rule's tail: completing Steps
	// does not fire immediately but holds a pending alert, which an event
	// matching any Absent step (same correlation key) within AbsentGrace
	// of the completion cancels. The pending alert fires once the
	// engine's clock (any fed event, or an explicit Flush) passes the
	// grace deadline — "A happened here AND NOT B happened there". The
	// cancellation window is symmetric (|Δt| < AbsentGrace), so the
	// outcome does not depend on whether the cancelling event was merged
	// before or after the completion.
	Absent []Step
	// AbsentGrace bounds how far from the pattern's completion an Absent
	// event may land and still cancel. Required (>0) when Absent is set.
	AbsentGrace time.Duration
	// KeyBy selects the correlation key events are matched under:
	// "" = Event.Session (the default), KeyByDetail = Event.Detail.
	KeyBy string
}

// Alert is a rule match.
type Alert struct {
	At       time.Duration
	Rule     string
	Severity Severity
	Session  string
	Detail   string
	Events   []Event
	// Count is how many times this (rule, session) pair has fired; repeats
	// update the count instead of appending new alerts.
	Count int
}

// String formats the alert for output: "[%8.3fs] %-8s %-16s
// session=%s %s" plus " (x%d)" for repeats, built without nested
// Sprintf so the only allocation is the returned string.
func (a Alert) String() string {
	var b strings.Builder
	b.Grow(48 + len(a.Session) + len(a.Detail))
	appendStamp(&b, a.At)
	padRight(&b, a.Severity.String(), 8)
	b.WriteByte(' ')
	padRight(&b, a.Rule, 16)
	b.WriteString(" session=")
	b.WriteString(a.Session)
	b.WriteByte(' ')
	b.WriteString(a.Detail)
	if a.Count > 1 {
		b.WriteString(" (x")
		b.WriteString(strconv.Itoa(a.Count))
		b.WriteByte(')')
	}
	return b.String()
}

// partial is an in-progress multi-step match.
type partial struct {
	startedAt time.Duration
	events    []Event
	next      int    // ordered rules: index of the next step
	matched   []bool // unordered rules: which steps have matched
	remaining int
}

// pendingAlert is an absence rule whose positive pattern completed and
// is now waiting out its grace period: cancelled by a matching Absent
// event, raised when the clock passes deadline.
type pendingAlert struct {
	key         ruleKey
	completedAt time.Duration
	deadline    time.Duration // completedAt + AbsentGrace
	alert       Alert         // prebuilt at completion so maturing is a plain raise
	seq         uint64        // filing order: the last tie-break of the raise order
	cancelled   bool          // cancelled or dropped by a reload; due skips it
}

// ruleKey names one rule's state for one correlation key. Both strings
// are already owned elsewhere — the rule's Name and the event's Session
// or Detail — so a lookup builds nothing. Checkpoints spell it
// "rule|key" (flat, splitRuleKey).
type ruleKey struct {
	rule string
	key  string
}

// flat is the key's checkpoint spelling.
func (k ruleKey) flat() string { return k.rule + "|" + k.key }

// splitRuleKey parses a checkpoint's "rule|key" spelling.
func splitRuleKey(s string) ruleKey {
	rule, key, _ := strings.Cut(s, "|")
	return ruleKey{rule: rule, key: key}
}

// ruleTimer ends one piece of rule state on the clock: a windowed
// partial (p set) or an absent lookback (p nil, armed for the lookback
// value seen).
type ruleTimer struct {
	at   time.Duration // the first clock value at which the state is dead
	k    ruleKey
	p    *partial
	seen time.Duration
}

// RuleEngine matches events against a ruleset, tracking partial matches
// per (rule, correlation key). It holds only state that can still
// matter: an emptied entry is deleted, a session-keyed partial ends with
// its session (dropSession), and windowed partials and absent lookbacks
// end on the clock (expire).
type RuleEngine struct {
	rules    []Rule
	partials map[ruleKey][]*partial
	alerts   []Alert
	dedup    map[ruleKey]int // (rule, session) -> dedupBase-relative index into alerts
	// dedupBase is added to every physical alerts index before it is
	// stored in dedup, and subtracted on lookup. Evicting the oldest alert
	// then only bumps the base instead of rewriting the whole map.
	dedupBase int
	onAlert   func(Alert)

	// byType lists, per event type, the indices of rules with at least one
	// step of that type; Feed consults it instead of scanning every rule.
	// Rules a given event type can never advance are skipped entirely.
	byType map[EventType][]int
	// byAbsent is byType's mirror for Absent steps: per event type, the
	// rules whose pending alerts that type can cancel.
	byAbsent map[EventType][]int
	// clock is the state of windowed and absence rules, made when one
	// first needs it: a ruleset with neither (the default) carries none.
	clock *ruleClock

	// maxAlerts caps the retained alert list (0 = unbounded); evicted
	// counts alerts dropped to respect it. Evicting an alert forgets its
	// dedup suppression, so the same (rule, session) may re-fire later.
	maxAlerts int
	evicted   int
	// version increments on every raise, including suppressed repeats
	// that only bump a Count; snapshot publishers use it to detect any
	// change to the alert list.
	version int

	// EventsSeen counts events fed to the engine.
	EventsSeen int
}

// ruleClock is the rule state that ends on the clock.
type ruleClock struct {
	// pendings holds completed-but-graced absence matches per key;
	// lastAbsent remembers the latest Absent-matching event time per the
	// same key, so a cancelling event that was merged BEFORE the
	// completion still cancels (the symmetric window). A lookback older
	// than the rule's AbsentGrace can cancel nothing later, so its timer
	// deletes it: both tables hold only what a grace window still covers.
	pendings   map[ruleKey][]*pendingAlert
	lastAbsent map[ruleKey]time.Duration
	// due orders the pendings for maturing by (deadline, rule, key,
	// completedAt, filing order); pendSeq numbers filings.
	due     minHeap[*pendingAlert]
	pendSeq uint64
	// timers ends windowed partials and absent lookbacks once the clock
	// passes them, so a key the traffic never revisits still lets go.
	timers minHeap[ruleTimer]
}

// clocked returns the engine's ruleClock, making it on first use.
func (re *RuleEngine) clocked() *ruleClock {
	if re.clock == nil {
		re.clock = &ruleClock{
			pendings:   make(map[ruleKey][]*pendingAlert),
			lastAbsent: make(map[ruleKey]time.Duration),
			due:        minHeap[*pendingAlert]{less: pendingBefore},
			timers:     minHeap[ruleTimer]{less: func(a, b ruleTimer) bool { return a.at < b.at }},
		}
	}
	return re.clock
}

// NewRuleEngine returns an engine for the given ruleset.
func NewRuleEngine(rules []Rule) *RuleEngine {
	return &RuleEngine{
		rules:    rules,
		partials: make(map[ruleKey][]*partial),
		dedup:    make(map[ruleKey]int),
		byType:   buildByType(rules),
		byAbsent: buildByAbsent(rules),
	}
}

// sessionKeyed reports whether a rule's partials are keyed by a session
// and so end with it (see dropSession).
func sessionKeyed(r *Rule) bool { return len(r.Steps) > 1 && r.KeyBy == "" }

// pendingBefore is the maturing order of pending absence alerts.
func pendingBefore(a, b *pendingAlert) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.key.rule != b.key.rule {
		return a.key.rule < b.key.rule
	}
	if a.key.key != b.key.key {
		return a.key.key < b.key.key
	}
	if a.completedAt != b.completedAt {
		return a.completedAt < b.completedAt
	}
	return a.seq < b.seq
}

// buildByType indexes a ruleset by the event types that can advance each
// rule (see the byType field doc).
func buildByType(rules []Rule) map[EventType][]int {
	byType := make(map[EventType][]int)
	for i := range rules {
		seen := make(map[EventType]bool, len(rules[i].Steps))
		for _, st := range rules[i].Steps {
			if !seen[st.Type] {
				seen[st.Type] = true
				byType[st.Type] = append(byType[st.Type], i)
			}
		}
	}
	return byType
}

// buildByAbsent indexes a ruleset by the event types that can cancel each
// rule's pending alerts (see the byAbsent field doc).
func buildByAbsent(rules []Rule) map[EventType][]int {
	byAbsent := make(map[EventType][]int)
	for i := range rules {
		seen := make(map[EventType]bool, len(rules[i].Absent))
		for _, st := range rules[i].Absent {
			if !seen[st.Type] {
				seen[st.Type] = true
				byAbsent[st.Type] = append(byAbsent[st.Type], i)
			}
		}
	}
	return byAbsent
}

// corrKey returns the correlation key the rule files state under.
func corrKey(r *Rule, e Event) string {
	if r.KeyBy == KeyByDetail {
		return e.Detail
	}
	return e.Session
}

// reload swaps the active ruleset at a quiescent point (between Feed
// calls). In-flight partial matches are carried forward for rules that
// exist in both rulesets with identical canonical text (FormatRules on
// the single rule — Where predicates are not representable in the DSL and
// so not part of the comparison) and dropped for removed or edited rules.
// Raised alerts, dedup suppression and the eviction offsets are
// untouched: detections that already fired survive a reload, exactly as
// they survive a checkpoint restore. Returns how many partials were
// dropped.
func (re *RuleEngine) reload(newRules []Rule) int {
	oldByName := make(map[string]string, len(re.rules))
	for i := range re.rules {
		oldByName[re.rules[i].Name] = FormatRules(re.rules[i : i+1])
	}
	keep := make(map[string]bool, len(newRules))
	for i := range newRules {
		if old, ok := oldByName[newRules[i].Name]; ok && old == FormatRules(newRules[i:i+1]) {
			keep[newRules[i].Name] = true
		}
	}
	dropped := 0
	for k, parts := range re.partials {
		if !keep[k.rule] {
			dropped += len(parts)
			delete(re.partials, k)
		}
	}
	// Pending absence alerts and absent lookbacks are in-flight state too:
	// a removed or edited rule's pendings and lookbacks drop with its
	// partials. The timers and due entries left behind find nothing and
	// lapse.
	if c := re.clock; c != nil {
		for k, pend := range c.pendings {
			if !keep[k.rule] {
				dropped += len(pend)
				for _, p := range pend {
					p.cancelled = true
				}
				delete(c.pendings, k)
			}
		}
		for k := range c.lastAbsent {
			if !keep[k.rule] {
				delete(c.lastAbsent, k)
			}
		}
	}
	re.rules = newRules
	re.byType = buildByType(newRules)
	re.byAbsent = buildByAbsent(newRules)
	return dropped
}

// dropSession ends a session's progress on the session-keyed multi-step
// rules. Every event those rules step on is raised from a live directory
// entry under its Call-ID, so once the directory drops the session the
// partial can never complete. Pending absence alerts are kept: they
// still mature at their deadline.
func (re *RuleEngine) dropSession(id string) {
	if len(re.partials) == 0 {
		return
	}
	for i := range re.rules {
		if sessionKeyed(&re.rules[i]) {
			delete(re.partials, ruleKey{rule: re.rules[i].Name, key: id})
		}
	}
}

// expire ends the windowed partials and absent lookbacks the clock has
// passed, at O(expired). A partial is dead once now > startedAt+Window
// and a lookback once now >= seen+AbsentGrace: events arrive in time
// order, so neither could match or cancel anything later.
func (re *RuleEngine) expire(now time.Duration) {
	c := re.clock
	for len(c.timers.items) > 0 && c.timers.items[0].at <= now {
		t := c.timers.pop()
		if t.p != nil {
			re.dropPartial(t.k, t.p)
		} else if at, ok := c.lastAbsent[t.k]; ok && at == t.seen {
			delete(c.lastAbsent, t.k)
		}
	}
}

// dropPartial removes one partial from its key, if it is still there.
func (re *RuleEngine) dropPartial(k ruleKey, p *partial) {
	parts, ok := re.partials[k]
	if !ok {
		return
	}
	if parts = removeItem(parts, p); len(parts) == 0 {
		delete(re.partials, k)
	} else {
		re.partials[k] = parts
	}
}

// raiseSynthetic records an engine-generated alert (rule-reload and
// friends) through the same dedup, retention-cap and callback machinery
// as rule matches, so downstream consumers cannot tell the two apart.
func (re *RuleEngine) raiseSynthetic(a Alert) { re.raiseAlert(a) }

// RaiseSynthetic records an externally generated self-alert — the
// cooperative aggregator's digest-gap reports — through the same dedup,
// retention-cap and callback machinery as rule matches, returning the
// retained (possibly Count-bumped) entry.
func (re *RuleEngine) RaiseSynthetic(a Alert) Alert { return re.raiseAlert(a) }

// raiseAlert records one alert through the shared dedup, retention-cap
// and callback machinery, returning the retained (possibly Count-bumped)
// entry. All three raise paths — rule matches, matured absence pendings
// and synthetic self-alerts — funnel through here.
func (re *RuleEngine) raiseAlert(a Alert) Alert {
	re.version++
	k := ruleKey{rule: a.Rule, key: a.Session}
	if idx, seen := re.dedup[k]; seen {
		re.alerts[idx-re.dedupBase].Count++
		return re.alerts[idx-re.dedupBase]
	}
	if re.maxAlerts > 0 && len(re.alerts) >= re.maxAlerts {
		re.evictOldestAlert()
	}
	re.dedup[k] = len(re.alerts) + re.dedupBase
	re.alerts = appendWindow(re.alerts, a, re.maxAlerts)
	if re.onAlert != nil {
		re.onAlert(a)
	}
	return a
}

// OnAlert registers a callback invoked for each new alert (not for
// suppressed repeats).
func (re *RuleEngine) OnAlert(fn func(Alert)) { re.onAlert = fn }

// Rules returns the ruleset.
func (re *RuleEngine) Rules() []Rule { return re.rules }

// Alerts returns all alerts raised so far.
func (re *RuleEngine) Alerts() []Alert {
	out := make([]Alert, len(re.alerts))
	copy(out, re.alerts)
	return out
}

// AlertsFor returns the alerts raised by one rule.
func (re *RuleEngine) AlertsFor(rule string) []Alert {
	var out []Alert
	for _, a := range re.alerts {
		if a.Rule == rule {
			out = append(out, a)
		}
	}
	return out
}

// Feed matches one event, returning any alerts it completes (including
// pending absence alerts the event's timestamp matures).
func (re *RuleEngine) Feed(e Event) []Alert {
	re.EventsSeen++
	var fired []Alert
	if re.clock != nil {
		re.expire(e.At)
		re.matureAbsent(e.At, &fired)
	}
	re.observeAbsent(e)
	for _, i := range re.byType[e.Type] {
		if a, ok := re.feedRule(&re.rules[i], e); ok {
			fired = append(fired, a)
		}
	}
	return fired
}

// Flush matures pending absence alerts whose grace deadline has passed
// as of now, returning any alerts raised, and ends the windowed state
// now has passed. Feeding an event does both implicitly; owners with
// quiet periods (the cooperative aggregator's merge boundary, end of a
// replay) call this to drain the tail.
func (re *RuleEngine) Flush(now time.Duration) []Alert {
	var fired []Alert
	if re.clock != nil {
		re.expire(now)
		re.matureAbsent(now, &fired)
	}
	return fired
}

func (re *RuleEngine) feedRule(r *Rule, e Event) (Alert, bool) {
	k := ruleKey{rule: r.Name, key: corrKey(r, e)}
	parts, had := re.partials[k]
	// Drop partials past the window. expire has already done so on a
	// clock that only moves forward; this keeps the match exact when an
	// event arrives with an earlier timestamp than one fed before it.
	if r.Window > 0 && len(parts) > 0 {
		live := parts[:0]
		for _, p := range parts {
			if e.At-p.startedAt <= r.Window {
				live = append(live, p)
			}
		}
		clear(parts[len(live):])
		parts = live
	}
	var completed, started *partial
	if r.Unordered {
		completed, started = re.advanceUnordered(r, e, &parts)
	} else {
		completed, started = re.advanceOrdered(r, e, &parts)
	}
	switch {
	case len(parts) > 0:
		re.partials[k] = parts
	case had:
		delete(re.partials, k)
	}
	if started != nil && r.Window > 0 {
		re.clocked().timers.push(ruleTimer{at: started.startedAt + r.Window + 1, k: k, p: started})
	}
	if completed == nil {
		return Alert{}, false
	}
	if len(r.Absent) > 0 {
		re.holdPending(r, e, completed, k)
		return Alert{}, false
	}
	return re.raise(r, e, completed, k), true
}

// holdPending files a completed absence match for its grace period —
// unless the lookback table shows a cancelling event already inside the
// symmetric window, in which case the match dies silently.
func (re *RuleEngine) holdPending(r *Rule, e Event, p *partial, k ruleKey) {
	c := re.clocked()
	if t, ok := c.lastAbsent[k]; ok && absDur(e.At-t) < r.AbsentGrace {
		return
	}
	c.pendSeq++
	pa := &pendingAlert{
		key:         k,
		completedAt: e.At,
		deadline:    e.At + r.AbsentGrace,
		seq:         c.pendSeq,
		alert: Alert{
			At:       e.At,
			Rule:     r.Name,
			Severity: r.Severity,
			Session:  k.key,
			Detail:   e.Detail + "; no " + absentDesc(r) + " within " + r.AbsentGrace.String(),
			Events:   append([]Event(nil), p.events...),
			Count:    1,
		},
	}
	c.pendings[k] = append(c.pendings[k], pa)
	c.due.push(pa)
}

// absentDesc names a rule's absent pattern for alert details.
func absentDesc(r *Rule) string {
	var b strings.Builder
	for i, st := range r.Absent {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(st.Type.String())
		if st.Point != "" {
			b.WriteByte('@')
			b.WriteString(st.Point)
		}
	}
	return b.String()
}

// observeAbsent runs one event against every rule whose Absent steps it
// could satisfy: it records the lookback timestamp (armed to lapse after
// the grace) and cancels pendings inside the symmetric grace window.
func (re *RuleEngine) observeAbsent(e Event) {
	for _, i := range re.byAbsent[e.Type] {
		r := &re.rules[i]
		matched := false
		for _, st := range r.Absent {
			if stepMatches(st, e) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		k := ruleKey{rule: r.Name, key: corrKey(r, e)}
		c := re.clocked()
		if t, ok := c.lastAbsent[k]; !ok || e.At > t {
			c.lastAbsent[k] = e.At
			c.timers.push(ruleTimer{at: e.At + r.AbsentGrace, k: k, seen: e.At})
		}
		pend, ok := c.pendings[k]
		if !ok {
			continue
		}
		live := pend[:0]
		for _, p := range pend {
			if absDur(e.At-p.completedAt) < r.AbsentGrace {
				p.cancelled = true // the absent evidence arrived
				continue
			}
			live = append(live, p)
		}
		clear(pend[len(live):])
		if len(live) == 0 {
			delete(c.pendings, k)
		} else {
			c.pendings[k] = live
		}
	}
}

// matureAbsent raises every pending alert whose grace deadline has
// passed, in deterministic (deadline, rule, key, completedAt) order,
// popping only the due ones.
func (re *RuleEngine) matureAbsent(now time.Duration, fired *[]Alert) {
	c := re.clock
	for len(c.due.items) > 0 && c.due.items[0].deadline <= now {
		p := c.due.pop()
		if p.cancelled {
			continue
		}
		if pend := removeItem(c.pendings[p.key], p); len(pend) == 0 {
			delete(c.pendings, p.key)
		} else {
			c.pendings[p.key] = pend
		}
		*fired = append(*fired, re.raiseAlert(p.alert))
	}
}

// absDur is |d| for durations.
func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// advanceOrdered offers e to an ordered rule's partials, returning the
// partial it completed and the one it started (at most one is non-nil).
func (re *RuleEngine) advanceOrdered(r *Rule, e Event, parts *[]*partial) (completed, started *partial) {
	// Advance existing partials first.
	for _, p := range *parts {
		if !stepMatches(r.Steps[p.next], e) {
			continue
		}
		p.events = append(p.events, e)
		p.next++
		if p.next == len(r.Steps) {
			*parts = removeItem(*parts, p)
			return p, nil
		}
		return nil, nil // one partial consumes the event
	}
	// Start a new partial if the event matches step 0.
	if !stepMatches(r.Steps[0], e) {
		return nil, nil
	}
	p := &partial{startedAt: e.At, events: []Event{e}, next: 1}
	if p.next == len(r.Steps) {
		return p, nil
	}
	*parts = append(*parts, p)
	return nil, p
}

// advanceUnordered is advanceOrdered for rules whose steps match in any
// order.
func (re *RuleEngine) advanceUnordered(r *Rule, e Event, parts *[]*partial) (completed, started *partial) {
	match := func(p *partial) bool {
		for i, step := range r.Steps {
			if p.matched[i] || !stepMatches(step, e) {
				continue
			}
			p.matched[i] = true
			p.remaining--
			p.events = append(p.events, e)
			return true
		}
		return false
	}
	for _, p := range *parts {
		if match(p) {
			if p.remaining == 0 {
				*parts = removeItem(*parts, p)
				return p, nil
			}
			return nil, nil
		}
	}
	p := &partial{startedAt: e.At, matched: make([]bool, len(r.Steps)), remaining: len(r.Steps)}
	if !match(p) {
		return nil, nil
	}
	if p.remaining == 0 {
		return p, nil
	}
	*parts = append(*parts, p)
	return nil, p
}

// removeItem removes target from s, zeroing the vacated tail slot so
// the backing array does not keep it reachable.
func removeItem[T comparable](s []T, target T) []T {
	for i, x := range s {
		if x == target {
			n := copy(s[i:], s[i+1:])
			var zero T
			s[i+n] = zero
			return s[:i+n]
		}
	}
	return s
}

// raise records an alert, suppressing repeats per (rule, correlation
// key). The dedup check runs before the alert is materialized so a
// suppressed repeat never copies the partial's event list.
func (re *RuleEngine) raise(r *Rule, e Event, p *partial, k ruleKey) Alert {
	if idx, seen := re.dedup[k]; seen {
		re.version++
		re.alerts[idx-re.dedupBase].Count++
		return re.alerts[idx-re.dedupBase]
	}
	return re.raiseAlert(Alert{
		At:       e.At,
		Rule:     r.Name,
		Severity: r.Severity,
		Session:  k.key,
		Detail:   e.Detail,
		Events:   append([]Event(nil), p.events...),
		Count:    1,
	})
}

// evictOldestAlert drops the front (oldest) retained alert in amortized
// O(1): the window slides past it (appendWindow re-bases it now and
// then), and surviving dedup entries stay valid because they are stored
// relative to dedupBase, which advances by one per eviction.
func (re *RuleEngine) evictOldestAlert() {
	victim := re.alerts[0]
	re.alerts[0] = Alert{}
	re.alerts = re.alerts[1:]
	re.evicted++
	re.dedupBase++
	delete(re.dedup, ruleKey{rule: victim.Rule, key: victim.Session})
}

// appendWindow appends x to s, the live window of a list that drops its
// oldest entries from the front to hold at most limit (0 = unbounded).
// Dropping from the front only reslices, so the window creeps along its
// backing array; when it reaches the end, appendWindow copies it to a
// fresh array of 2*limit, which happens at most once per limit/2
// appends. Each element is copied O(1) times amortized and the array
// never exceeds twice the limit.
func appendWindow[T any](s []T, x T, limit int) []T {
	if limit > 0 && len(s) == cap(s) && len(s) >= limit/2 {
		grown := make([]T, len(s), 2*limit)
		copy(grown, s)
		s = grown
	}
	return append(s, x)
}

// minHeap is a binary min-heap under less.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the least item; the heap must not be empty.
func (h *minHeap[T]) pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	i := 0
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && h.less(h.items[l], h.items[least]) {
			least = l
		}
		if r < last && h.less(h.items[r], h.items[least]) {
			least = r
		}
		if least == i {
			return top
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
