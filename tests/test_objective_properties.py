"""Property tests: the text gradient and the pair gradient equal their
explicit formulas exactly.

The objective computes dL/dHt as the image-side gradient of the mirrored
batch.  ``oracles.explicit_text_grad`` keeps the text side's own formula;
both of the library's text gradients must equal it bit for bit on batches
of one to 40 rows and one to 130 bits, with tied rows, with either side
replaced by sign codes, and with the correlation term on and off.  S and
R are symmetric, as the objective requires.

dL/dC_it, which both gradients read, must equal the sum of its three
terms in ``oracles.explicit_g_it`` on the same batches with some related
pairs pinned at C_it = +-1.  For beta > 1 the correlation term's part is
negative on every related pair: it never stops pulling their cosines up.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from assph import objective  # noqa: E402
from assph.config import TrainConfig  # noqa: E402
from oracles import explicit_g_it, explicit_text_grad  # noqa: E402


def _rows(rng, m, k, n_distinct, signs):
    """m rows drawn from n_distinct soft rows, or their signs."""
    pool = np.tanh(rng.standard_normal((n_distinct, k)) * rng.uniform(0.1, 3.0))
    rows = pool[rng.integers(0, n_distinct, m)]
    return np.where(rows >= 0.0, 1.0, -1.0) if signs else rows


def _symmetric(upper):
    return np.triu(upper) + np.triu(upper, 1).T


@st.composite
def batches(draw):
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    signs = draw(st.sampled_from([None, "image", "text"]))
    hi = _rows(rng, m, k, draw(st.integers(1, m)), signs == "image")
    ht = _rows(rng, m, k, draw(st.integers(1, m)), signs == "text")
    s = _symmetric(rng.uniform(-1.0, 1.0, (m, m)))
    r = _symmetric((rng.random((m, m)) < draw(st.sampled_from([0.0, 0.3, 1.0])))
                   .astype(np.float64))
    weights = TrainConfig(mu1=draw(st.sampled_from([0.0, 0.7, 2.0])),
                          mu2=draw(st.sampled_from([0.0, 0.3, 1.0])),
                          beta=draw(st.sampled_from([1.0, 1.5])))
    return hi, ht, s, r, weights


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(batches())
def test_text_gradients_equal_the_explicit_formula(batch):
    want = explicit_text_grad(*batch)
    _assert_same_bits(objective.text_grad(*batch), want)
    _assert_same_bits(objective.total_loss_and_grads(*batch).grad_text, want)


@st.composite
def pinned_batches(draw):
    """batches() with some rows' text codes set to their image codes or to
    their negation, so C_it is +-1 on those diagonal pairs, which R relates."""
    hi, ht, s, r, weights = draw(batches())
    ht, r = ht.copy(), r.copy()
    for i in draw(st.lists(st.integers(0, len(hi) - 1), unique=True)):
        ht[i] = draw(st.sampled_from([1.0, -1.0])) * hi[i]
        r[i, i] = 1.0
    return hi, ht, s, r, weights


@settings(max_examples=300, deadline=None)
@given(pinned_batches())
def test_pair_gradient_is_its_three_terms_and_cp_pulls_related_pairs_up(batch):
    hi, ht, s, r, weights = batch
    sr, cp, sa = explicit_g_it(*batch)
    _assert_same_bits(objective._g_it(objective._cosines(hi, ht, s, r), weights),
                      sr + cp + sa)
    if weights.mu1 > 0 and weights.beta > 1:  # a cosine never reaches beta
        assert (cp[r == 1] < 0).all()
