package cpu

import "fmt"

// TxnLifetimeViolation checks the load queue against the memory system's
// Txn lifetime contract: a transaction is recycled once it completes, so
// only an in-flight load may hold one, and its Ref must name that load's
// LQ entry. It returns the first violation, or nil.
func (m *Machine) TxnLifetimeViolation() error {
	for i := range m.lq {
		lq := &m.lq[i]
		if !lq.valid || lq.txn == nil {
			continue
		}
		if lq.Completed || lq.Forwarded {
			return fmt.Errorf("cycle %d: LQ %d (seq %d) is complete but still holds a transaction", m.now, i, lq.Seq)
		}
		if lq.txn.Ref != int32(i) {
			return fmt.Errorf("cycle %d: LQ %d (seq %d) holds a transaction tagged for LQ %d", m.now, i, lq.Seq, lq.txn.Ref)
		}
	}
	return nil
}
