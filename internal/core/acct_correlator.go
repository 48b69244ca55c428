package core

import (
	"fmt"

	"scidive/internal/accounting"
)

// acctCorrelator correlates billing transactions with the SIP state other
// correlators accumulated: a billing START must match a registration, a
// call setup, and the caller's registered location (the Section 3.2
// billing-fraud conditions). It reads the shared session table and the
// registration-binding directory through SessionContext and keeps no
// cross-session state of its own.
type acctCorrelator struct{}

func newAcctCorrelator() *acctCorrelator { return &acctCorrelator{} }

func (c *acctCorrelator) Name() string          { return "acct" }
func (c *acctCorrelator) Protocols() []Protocol { return []Protocol{ProtoAccounting} }

// claimPort claims the accounting feed's port.
func (c *acctCorrelator) claimPort(srcPort, dstPort uint16) (Protocol, bool) {
	if dstPort == accounting.DefaultPort {
		return ProtoAccounting, true
	}
	return ProtoOther, false
}

func (c *acctCorrelator) Process(v *FrameView, h RouteHints, ctx *SessionContext, evs *[]Event) {
	if v.Proto != ProtoAccounting {
		return
	}
	txn := v.Txn
	switch txn.Kind {
	case accounting.TxnStart:
		st := ctx.OpenSession(txn.CallID)
		st.acctStart = true
		*evs = append(*evs, Event{At: v.At, Type: EvAcctStart, Session: txn.CallID,
			Detail: fmt.Sprintf("%s -> %s from %v", txn.From, txn.To, txn.FromIP)})
		// The Section 3.2 check: the billed caller must have initiated the
		// call from their registered location.
		binding, registered := ctx.Binding(txn.From)
		switch {
		case !registered, !st.established && st.callerAOR == "":
			c.unmatchedAcct(v, st, evs,
				fmt.Sprintf("billing START for %s with no matching registration/call setup", txn.From))
		case txn.FromIP != binding:
			c.unmatchedAcct(v, st, evs,
				fmt.Sprintf("billing START for %s from %v but %s is registered at %v",
					txn.From, txn.FromIP, txn.From, binding))
		case st.inviteSrcIP.IsValid() && st.inviteSrcIP != binding:
			c.unmatchedAcct(v, st, evs,
				fmt.Sprintf("INVITE for billed call came from %v, not %s's registered %v",
					st.inviteSrcIP, txn.From, binding))
		}
	case accounting.TxnStop:
		*evs = append(*evs, Event{At: v.At, Type: EvAcctStop, Session: txn.CallID})
	}
}

func (c *acctCorrelator) unmatchedAcct(v *FrameView, st *sessionState, evs *[]Event, detail string) {
	if st.unmatchedOnce {
		return
	}
	st.unmatchedOnce = true
	*evs = append(*evs, Event{At: v.At, Type: EvAcctUnmatched, Session: st.callID, Detail: detail})
}
