"""wp/interpreter agreement: for loop-free programs, the truth of wp(S, Q)
in the initial state equals executing S and checking Q, exactly, in
rational mode."""

TRIALS = 1000


def test_wp_agrees_with_execution_on_1000_random_triples(wp_triples):
    assert len(wp_triples) == TRIALS
    mismatches = []
    for t in wp_triples:
        assert t.sides == []    # no division, arrays or asserts generated
        assert t.status == "normal", t.error
        if t.lhs != t.rhs:
            mismatches.append((t.seed, t.src, t.post, t.sigma, t.lhs, t.rhs))
    assert not mismatches, mismatches[:3]
