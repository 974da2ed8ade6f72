package knw

// MergeNegated folds −1 times other's stream into l, so that l's
// estimate becomes L0(x_l − x_other): the number of keys whose net
// counts differ between the two streams. Requires identical options
// and seed, like Merge: a mismatch returns an error wrapping
// ErrIncompatible. The receiver is modified; other is not.
func (l *L0) MergeNegated(other *L0) error {
	if l.cfg != other.cfg {
		return errCfgMismatch(l)
	}
	for i := range l.copies {
		l.copies[i].MergeFromNegated(other.copies[i])
	}
	return nil
}

// HammingDiff estimates |{i : count_a(i) ≠ count_b(i)}| — how many
// keys the two streams disagree on — without modifying either sketch
// (a is copied). This is the paper's data-cleaning / packet-tracing
// statistic: stream each column (or each router's view) into its own
// same-seed L0 sketch with +1 updates, then diff the sketches; row
// order never matters. A configuration mismatch returns an error
// wrapping ErrIncompatible.
func HammingDiff(a, b *L0) (float64, error) {
	d := a.clone()
	if err := d.MergeNegated(b); err != nil {
		return 0, err
	}
	return d.EstimateErr()
}
