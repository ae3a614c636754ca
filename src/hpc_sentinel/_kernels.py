"""Hot numeric kernels in numpy and plain Python.

Window counting is vectorized numpy. The split search scores every node
of a batch of tree nodes in one pass over histograms of rank-coded
features: no sort per node, one bincount per batch. The simulation
stepper is an inherently sequential loop. ``python3 perfbench/run.py
--trace 1`` times window counting and the simulation stepper on real
workloads. Its split-search timer wraps the single-node best_split, which
no command calls, so it reads 0. Equal rows are found by group_rows.
"""

import math

import numpy as np

# category codes: a=0 b=1 l=2 n=3 s=4, other=5 (alphabetical by symbol)
NUM_CLASSES = 5
NUM_FEATURES = NUM_CLASSES + NUM_CLASSES * NUM_CLASSES


# ---------------------------------------------------------------------------
# window counting

def window_counts(cats, window):
    """Per-window unigram/bigram counts over a category-code stream.

    Counters reset at every window boundary; a pair contributes only when
    both members are categorized (code < 5) and adjacent inside one window.
    Returns an (n_windows, 30) int64 array.
    """
    n = cats.shape[0]
    n_win = (n + window - 1) // window
    out = np.zeros((n_win, NUM_FEATURES), dtype=np.int64)
    if n == 0:
        return out
    win_idx = np.arange(n, dtype=np.int64) // window
    known = cats < NUM_CLASSES
    uni = np.bincount(win_idx[known] * NUM_CLASSES + cats[known],
                      minlength=n_win * NUM_CLASSES)
    out[:, :NUM_CLASSES] = uni.reshape(n_win, NUM_CLASSES)
    if n >= 2:
        first, second = cats[:-1], cats[1:]
        ok = ((win_idx[:-1] == win_idx[1:])
              & (first < NUM_CLASSES) & (second < NUM_CLASSES))
        code = (win_idx[:-1][ok] * NUM_CLASSES * NUM_CLASSES
                + first[ok] * NUM_CLASSES + second[ok])
        big = np.bincount(code, minlength=n_win * NUM_CLASSES * NUM_CLASSES)
        out[:, NUM_CLASSES:] = big.reshape(n_win, NUM_CLASSES * NUM_CLASSES)
    return out


# ---------------------------------------------------------------------------
# equal rows

def group_rows(keys):
    """Each sample's group id and the first sample of each group, the
    groups being the samples equal on every key, numbered in np.lexsort
    order of keys. Runs of integer keys whose ranges multiply to at most
    2^62 are packed into one int64 key by mixed radix. A group starts at
    each change of a sorted key (np.unique would import numpy.ma, 1.6 MB)."""
    packed, span = [], math.inf  # most significant first; span of the last
    for k in map(np.asarray, reversed(keys)):
        width = (int(k.max()) - int(k.min()) + 1
                 if k.size and k.dtype.kind in "iu" else math.inf)
        if width <= 2**62:
            # k - min lies in [0, width): a wrapping int64 difference is exact
            k = np.subtract(k, k.min(), dtype=np.int64, casting="unsafe")
        if span * width <= 2**62:
            packed[-1] = packed[-1] * width + k
            span *= width
        else:
            packed.append(k)
            span = width
    keys = packed[::-1]
    order = np.lexsort(keys)
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(order.shape[0], dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


# ---------------------------------------------------------------------------
# Gini split search
#
# Features are rank-coded: the distinct values of a column, ascending, get
# codes 0, 1, ... A histogram of a node's rows and malicious rows over the
# codes of one column lists the same cuts a sort of that column would, one
# between each pair of adjacent codes present in the node, and its prefix
# sums give each cut's child class counts. This is the histogram split
# finding of LightGBM and XGBoost's `hist`, exact here because the bins
# are the distinct values themselves (a 50-instruction window's counter
# takes at most 51 values). Each entry carries an integer weight, the number
# of identical (codes, label) rows it stands for, so repeated rows are
# counted once per histogram instead of once per copy.
#
# The split score maximized is sum_children (c0^2 + c1^2) / n_child, which
# orders splits identically to minimizing weighted Gini impurity. Scores are
# integer fractions; exact cross-multiplied comparison keeps the search
# bit-deterministic and makes the documented tie-break (lowest feature index,
# then lowest threshold) exact. int64 products reach n^5 / 16, n the node's
# weighted size, in range up to EXACT_SPLIT_LIMIT; larger nodes compare in
# float64 instead (still deterministic, same operation order). A cut's
# numerator, below n^3, is an exact int64 up to INT64_SCORE_LIMIT = 2^21 - 1
# rows, and a float node scores it divided once; a larger node scores the
# same sum of child fractions from float64 counts.
EXACT_SPLIT_LIMIT = 4000
INT64_SCORE_LIMIT = 2**21 - 1


def rank_code(x):
    """Dense rank codes of the rows of x, a (k, n) int64 array: one row
    per feature, one column per sample.

    Returns (codes, values, offsets), codes a (k, n) C-ordered array:
    codes[j, i] is the rank of x[j, i] among the distinct values of row
    j, which are values[offsets[j]:offsets[j + 1]] in ascending order.
    """
    x = np.asarray(x, dtype=np.int64)
    order = np.argsort(x, axis=1)
    s = np.take_along_axis(x, order, axis=1)
    new = np.ones(s.shape, dtype=bool)
    new[:, 1:] = s[:, 1:] != s[:, :-1]
    codes = np.empty(x.shape, dtype=np.int64)
    np.put_along_axis(codes, order, np.cumsum(new, axis=1) - 1, axis=1)
    offsets = np.zeros(x.shape[0] + 1, dtype=np.int64)
    np.cumsum(new.sum(axis=1), out=offsets[1:])
    return codes, s[new], offsets


def _run_starts(a):
    """Mask of the entries of a that differ from the one before."""
    lead = np.empty(a.shape[0], dtype=bool)
    lead[:1] = True
    np.not_equal(a[1:], a[:-1], out=lead[1:])
    return lead


def best_split_codes(codes, y, weights, sizes, bins):
    """Best split of every node of a batch in one loop-free pass.

    codes holds rank codes by candidate column, (k, entries) int64: node i
    owns the next sizes[i] entries of every row, and bins[i, j] bounds the
    codes of its column j. y holds the 0/1 labels of the entries and
    weights their positive integer multiplicities: an entry of weight w
    scores as w identical rows. A node's size is the sum of its weights;
    node i scores with exact integer fractions when that is at most
    EXACT_SPLIT_LIMIT, else in float64. Returns int64 arrays (column, lo,
    hi, found) with one entry per node: the column of the best split that
    strictly improves on the node's own score and the adjacent present
    codes it cuts between (left child: code <= lo), or found == 0 when
    none does.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_nodes = sizes.shape[0]
    col_out = np.full(n_nodes, -1, dtype=np.int64)
    lo_out = np.zeros(n_nodes, dtype=np.int64)
    hi_out = np.zeros(n_nodes, dtype=np.int64)
    found_out = np.zeros(n_nodes, dtype=np.int64)
    if codes.size == 0:
        return col_out, lo_out, hi_out, found_out
    k = codes.shape[0]
    y = np.asarray(y, dtype=np.int64)
    # Weighted counts are sums of integers in float64, exact below 2^53;
    # bincount takes float64 weights without a conversion pass.
    w = np.asarray(weights, dtype=np.float64)
    entry_node = np.repeat(np.arange(n_nodes), sizes)
    n_rows = np.bincount(entry_node, w, n_nodes).astype(np.int64)
    tot1 = np.bincount(entry_node, w * y, n_nodes).astype(np.int64)
    tot0 = n_rows - tot1
    parent = tot0 * tot0 + tot1 * tot1
    f0, f1 = tot0.astype(np.float64), tot1.astype(np.float64)
    parent_score = (f0 * f0 + f1 * f1) / n_rows
    exact = n_rows <= EXACT_SPLIT_LIMIT

    # One segment per (node, column), packed in that order, with one slot
    # per code; one weighted bincount over (slot, label) keys counts rows
    # and malicious rows together. The present slots come out of flatnonzero
    # already ordered by (node, column, threshold).
    seg_bins = np.asarray(bins, dtype=np.int64).ravel()
    seg_off = np.cumsum(seg_bins) - seg_bins
    key = np.repeat(seg_off.reshape(n_nodes, k).T, sizes, axis=1)
    key += codes
    key *= 2
    key += y
    hist = np.bincount(key.ravel(), np.broadcast_to(w, key.shape).ravel(),
                       2 * int(seg_bins.sum()))
    hist1 = hist[1::2]
    hist = hist[::2] + hist1
    slot = np.flatnonzero(hist)
    sseg = np.searchsorted(seg_off, slot, side="right") - 1
    c_all = np.cumsum(hist[slot]).astype(np.int64)
    c1_all = np.cumsum(hist1[slot]).astype(np.int64)
    seg_len = np.repeat(n_rows, k)
    seg_start = np.cumsum(seg_len) - seg_len
    seg_tot1 = np.repeat(tot1, k)
    base = np.cumsum(seg_tot1) - seg_tot1

    # Cuts: adjacent present codes of one segment.
    cut = np.flatnonzero(sseg[:-1] == sseg[1:])
    s = sseg[cut]
    node = s // k
    n = n_rows[node]
    nl = c_all[cut] - seg_start[s]
    nr = n - nl
    c1 = c1_all[cut] - base[s]
    c0l = nl - c1
    c1r = tot1[node] - c1
    c0r = nr - c1r
    num = (c0l * c0l + c1 * c1) * nr + (c0r * c0r + c1r * c1r) * nl
    den = nl * nr
    score = num / den
    big = n > INT64_SCORE_LIMIT
    if big.any():
        l0, l1, r0, r1, fl, fr = (a[big].astype(np.float64)
                                  for a in (c0l, c1, c0r, c1r, nl, nr))
        score[big] = (l0 * l0 + l1 * l1) / fl + (r0 * r0 + r1 * r1) / fr
    ex = exact[node]
    keep = np.flatnonzero(np.where(ex, num * n > parent[node] * den,
                                   score > parent_score[node]))
    if not keep.size:
        return col_out, lo_out, hi_out, found_out

    # Candidates are ordered by (node, column, threshold), so a node's
    # first maximum is its tie-break winner. Rounding is monotone, so every
    # exact maximum shares its node's float maximum: pick the first float
    # maximum, then, in exact nodes, move to the first tied candidate that
    # beats the pick until none does; each move raises the pick's score.
    # (Distinct fractions can round alike only in nodes of ~2400+ rows.)
    kscore = score[keep]
    lead = _run_starts(node[keep])
    top = np.maximum.reduceat(kscore, np.flatnonzero(lead))
    tied = keep[kscore == top[np.cumsum(lead) - 1]]
    best = np.full(n_nodes, -1, dtype=np.int64)
    while tied.size:
        tnode = node[tied]
        lead = _run_starts(tnode)
        best[tnode[lead]] = tied[lead]
        tied = tied[ex[tied]]
        pick = best[node[tied]]
        tied = tied[num[tied] * den[pick] > num[pick] * den[tied]]

    won = best[best >= 0]
    ws = s[won]
    wnode = node[won]
    col_out[wnode] = ws % k
    lo_out[wnode] = slot[cut[won]] - seg_off[ws]
    hi_out[wnode] = slot[cut[won] + 1] - seg_off[ws]
    found_out[wnode] = 1
    return col_out, lo_out, hi_out, found_out


# perfbench/tracer.py wraps this name.
def best_split(x, y, feats):
    """Best split of one node, x its (rows, features) int64 values, over
    the columns feats: :func:`best_split_codes` on the rank codes of those
    columns. Returns (feature, threshold, found): the feature and integer
    threshold (left child: value <= threshold) of the best split, the
    floor of the midpoint of the two values it cuts between, or
    (-1, 0, 0) when no split improves the node.
    """
    codes, values, offsets = rank_code(np.asarray(x)[:, feats].T)
    col, lo, hi, found = best_split_codes(
        codes, y, np.ones(x.shape[0], dtype=np.int64), [x.shape[0]],
        np.diff(offsets)[None])
    if not found[0]:
        return np.int64(-1), np.int64(0), np.int64(0)
    at = offsets[col[0]]
    return (np.int64(feats[col[0]]),
            (values[at + lo[0]] + values[at + hi[0]]) // 2, found[0])


# ---------------------------------------------------------------------------
# microgrid simulation
#
# simulate_core reads the plant constants from the scenario by name and
# calls the stepping primitives once per tracker update or grid step;
# tests check each primitive against its closed form.

def pv_voltage(i_cmd, irr, v_oc, i_sc, knee):
    """Terminal voltage (V) when the converter draws i_cmd amps."""
    lim = irr * i_sc
    if i_cmd >= lim:
        return 0.0
    if i_cmd <= 0.0:
        return v_oc
    return v_oc * (1.0 - i_cmd / lim) ** (1.0 / knee)


def pno_update(p_i, v_i, i_ref, d_i, v_rt, i_rt, i_max, symmetric):
    """One hill-climb step of the current-reference tracker.

    The literal form perturbs only on a power drop; the symmetric variant
    also keeps perturbing while power grows, which is what lets the tracker
    climb from a cold start. The symmetric form also lowers the current
    while the panel sits at 0 V: a command at or past the short-circuit
    current measures no power and no voltage change, so without that rule
    it never leaves it. The literal form holds its command there, so a
    dark spell cannot wind its current down to 0 A, where it would measure
    no power drop ever again. History always advances.
    """
    p_rt = v_rt * i_rt
    dp = p_rt - p_i
    dv = v_rt - v_i
    if v_rt == 0.0 and symmetric:
        i_ref -= d_i
    elif dp < 0.0:
        if dv > 0.0:
            i_ref += d_i
        else:
            i_ref -= d_i
    elif symmetric:
        if dv > 0.0:
            i_ref -= d_i
        else:
            i_ref += d_i
    if i_ref < 0.0:
        i_ref = 0.0
    if i_ref > i_max:
        i_ref = i_max
    return p_rt, v_rt, i_ref


def dispatch_update(load_kw, pv_kw, diesel_prev, ess_e, ess_p_max, ess_cap,
                    diesel_max, ramp_k, dt):
    """Merit-order dispatch: battery covers the residual first, diesel ramps.

    ramp_k is exp(-dt/tau) so the diesel trajectory is the exact discrete
    first-order response. Returns (diesel_kw, ess_kw, ess_kwh).
    """
    residual = load_kw - pv_kw
    if residual >= 0.0:
        ess = residual
        if ess > ess_p_max:
            ess = ess_p_max
        avail = ess_e * 3600.0 / dt
        if ess > avail:
            ess = avail
    else:
        ess = residual
        if ess < -ess_p_max:
            ess = -ess_p_max
        room = (ess_e - ess_cap) * 3600.0 / dt
        if ess < room:
            ess = room
    target = residual - ess
    if target < 0.0:
        target = 0.0
    if target > diesel_max:
        target = diesel_max
    diesel = target + (diesel_prev - target) * ramp_k
    if diesel < 0.0:
        diesel = 0.0
    if diesel > diesel_max:
        diesel = diesel_max
    ess_e = ess_e - ess * dt / 3600.0
    if ess_e < 0.0:
        ess_e = 0.0
    if ess_e > ess_cap:
        ess_e = ess_cap
    return diesel, ess, ess_e


def frequency_step(f, imbalance_kw, s_base_kw, k_f, damping, f_nom, dt):
    """Exact discrete update of df/dt = k_f*(imbalance/S) - D*(f - f_nom)."""
    f_eq = f_nom + k_f * (imbalance_kw / s_base_kw) / damping
    return f_eq + (f - f_eq) * math.exp(-damping * dt)


# Largest number of steps simulate_core keeps for replay. The shipped
# scenarios need at most 19 over 6000 steps; an irradiance ramp makes
# every step a new key, so the table is emptied whenever it is full.
REPLAY_SLOTS = 1024


def simulate_core(n_steps, s, load_kw, irr, mppt_on, inv_on, pert_amp,
                  pert_freq, replay=None):
    """Fixed-step loop over the scenario s (an mgsim.Scenario, read only
    by attribute) and its per-step schedules, float64 but for the bool
    mppt_on and inv_on. One output row per grid step: freq_hz, pv_kw,
    diesel_kw, ess_kw, ess_kwh, i_ref.

    A step of the inverter with no sensor perturbation depends only on
    (irradiance, tracker on, i_ref, p_i, v_i) at its start, so its mean
    PV and end state are kept in `replay` (a fresh dict by default,
    emptied when it holds REPLAY_SLOTS steps) and a repeat of the key
    replays them: the same floats the substep loop would compute. Keys
    compare floats by value, so 0.0 and -0.0 share an entry; the loop
    uses p_i and v_i only in comparisons and adds the panel power to a
    +0.0 sum, so the sign of a zero cannot change a result.
    """
    # Python floats step about twice as fast as numpy scalars, with the
    # same IEEE results.
    load_kw, irr, mppt_on, inv_on, pert_amp, pert_freq = (
        a.tolist() for a in (load_kw, irr, mppt_on, inv_on, pert_amp,
                             pert_freq))
    substeps = s.substeps
    grid_dt = float(s.grid_dt_s)
    mppt_dt = float(s.mppt_dt_s)
    v_oc = float(s.pv.v_oc_v)
    i_sc = float(s.pv.i_sc_a)
    knee = float(s.pv.knee)
    d_i = float(s.delta_i_a)
    i_ref = float(s.i_ref0_a)
    ess_p_max = float(s.ess_p_max_kw)
    ess_cap = float(s.ess_capacity_kwh)
    ess_e = float(s.ess_initial_kwh)
    diesel_max = float(s.diesel_max_kw)
    tau_d = float(s.diesel_tau_s)
    diesel = float(s.diesel_initial_kw)
    f_nom = float(s.f_nominal_hz)
    k_f = float(s.k_f)
    damping = float(s.damping)
    s_base = float(s.s_base_kw)
    symmetric = s.pno_variant == "symmetric"

    ramp_k = math.exp(-grid_dt / tau_d)
    two_pi = 2.0 * math.pi
    p_i = 0.0
    v_i = 0.0
    freq = f_nom
    if replay is None:
        replay = {}
    out = np.empty((n_steps, 6), dtype=np.float64)
    for k in range(n_steps):
        g = irr[k]
        t0 = k * grid_dt
        if inv_on[k] != 0:
            tracking = mppt_on[k] != 0
            amp = pert_amp[k] if tracking else 0.0
            key = None if amp > 0.0 else (g, tracking, i_ref, p_i, v_i)
            hit = None if key is None else replay.get(key)
            if hit is not None:
                pv_kw, p_i, v_i, i_ref = hit
            else:
                acc = 0.0
                for j in range(substeps):
                    i_act = i_ref
                    lim = g * i_sc
                    if i_act > lim:
                        i_act = lim
                    v_rt = pv_voltage(i_act, g, v_oc, i_sc, knee)
                    acc += v_rt * i_act
                    if tracking:
                        if amp > 0.0:
                            wig = 1.0 + amp * math.sin(
                                two_pi * pert_freq[k] * (t0 + j * mppt_dt))
                            vm = v_rt * wig
                            im = i_act * wig
                        else:
                            vm = v_rt
                            im = i_act
                        p_i, v_i, i_ref = pno_update(
                            p_i, v_i, i_ref, d_i, vm, im, i_sc, symmetric)
                pv_kw = acc / substeps / 1000.0
                if key is not None:
                    if len(replay) >= REPLAY_SLOTS:
                        replay.clear()
                    replay[key] = (pv_kw, p_i, v_i, i_ref)
        else:
            pv_kw = 0.0
        diesel, ess, ess_e = dispatch_update(
            load_kw[k], pv_kw, diesel, ess_e,
            ess_p_max, ess_cap, diesel_max, ramp_k, grid_dt)
        imbalance = pv_kw + diesel + ess - load_kw[k]
        freq = frequency_step(freq, imbalance, s_base, k_f, damping,
                              f_nom, grid_dt)
        out[k, 0] = freq
        out[k, 1] = pv_kw
        out[k, 2] = diesel
        out[k, 3] = ess
        out[k, 4] = ess_e
        out[k, 5] = i_ref
    return out


# ---------------------------------------------------------------------------
# names kept for the benchmark harness

def backend():
    """Name of the kernel path, for logs and the benchmark."""
    return "pure"


def warmup():
    """No-op; perfbench's set-up code calls it before timing a run."""
