"""Hot numeric kernels with two execution paths.

By default the loop kernels are compiled with numba's @njit. Setting the
environment variable ``HPC_SENTINEL_NO_NUMBA=1`` (before import) selects the
pure fallback path instead: vectorized numpy where the computation allows it
(window counting, split search over a whole batch of tree nodes), the
uncompiled loop where it is inherently sequential (the simulation stepper).
Both paths produce identical results. ``python3 perfbench/run.py --trace 1``
reports the time spent in each kernel on real workloads.
"""

import math
import os

import numpy as np

# category codes: a=0 b=1 l=2 n=3 s=4, other=5 (alphabetical by symbol)
NUM_CLASSES = 5
NUM_FEATURES = NUM_CLASSES + NUM_CLASSES * NUM_CLASSES


# ---------------------------------------------------------------------------
# window counting

def _window_counts_loop(cats, window):
    """Per-window unigram/bigram counts over a category-code stream.

    Counters reset at every window boundary; a pair contributes only when
    both members are categorized (code < 5) and adjacent inside one window.
    Returns an (n_windows, 30) int64 array.
    """
    n = cats.shape[0]
    n_win = (n + window - 1) // window
    out = np.zeros((n_win, NUM_FEATURES), dtype=np.int64)
    for w in range(n_win):
        start = w * window
        stop = start + window
        if stop > n:
            stop = n
        prev = -1
        for i in range(start, stop):
            c = cats[i]
            if c < NUM_CLASSES:
                out[w, c] += 1
                if prev >= 0:
                    out[w, NUM_CLASSES + NUM_CLASSES * prev + c] += 1
                prev = c
            else:
                prev = -1
    return out


def _window_counts_numpy(cats, window):
    """Vectorized equivalent of :func:`_window_counts_loop`."""
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
# Gini split search
#
# The split score maximized is sum_children (c0^2 + c1^2) / n_child, which
# orders splits identically to minimizing weighted Gini impurity. Scores are
# integer fractions; exact cross-multiplied comparison keeps the search
# bit-deterministic and makes the documented tie-break (lowest feature index,
# then lowest threshold) exact. int64 products reach n^5 / 16, in range for
# nodes up to EXACT_SPLIT_LIMIT rows; beyond that callers pass exact=False
# to fall back to float64 comparison (still deterministic, same operation
# order).
EXACT_SPLIT_LIMIT = 4000


def _best_split_loop(x, y, feats, exact):
    """Best (feature, integer threshold) split of a binary-labeled node.

    Only splits that strictly improve on the parent score qualify. Returns
    (feature, threshold, found) with found == 0 when no improving split
    exists; the predicate for the left child is value <= threshold.
    """
    n = x.shape[0]
    tot1 = 0
    for i in range(n):
        tot1 += y[i]
    tot0 = n - tot1
    parent_num = tot0 * tot0 + tot1 * tot1  # over denominator n

    best_feat = np.int64(-1)
    best_thr = np.int64(0)
    best_num = np.int64(0)
    best_den = np.int64(1)
    best_f = -1.0
    found = False

    for fi in range(feats.shape[0]):
        f = feats[fi]
        col = x[:, f].copy()
        order = np.argsort(col)
        c1 = np.int64(0)
        for i in range(n - 1):
            c1 += y[order[i]]
            lo = col[order[i]]
            hi = col[order[i + 1]]
            if lo == hi:
                continue
            nl = np.int64(i + 1)
            nr = np.int64(n) - nl
            c0l = nl - c1
            c1r = np.int64(tot1) - c1
            c0r = nr - c1r
            num = (c0l * c0l + c1 * c1) * nr + (c0r * c0r + c1r * c1r) * nl
            den = nl * nr
            if exact:
                if num * n <= parent_num * den:
                    continue
                better = (not found) or (num * best_den > best_num * den)
            else:
                s = num / den
                if s <= parent_num / n:
                    continue
                better = (not found) or (s > best_f)
            if better:
                found = True
                best_feat = np.int64(f)
                best_thr = (lo + hi) // 2
                best_num = num
                best_den = den
                best_f = num / den
    return best_feat, best_thr, (np.int64(1) if found else np.int64(0))


def _best_split_batch_numpy(x, y, sizes, exact=None):
    """Best split of every node of a batch in one loop-free pass.

    x stacks the nodes' rows of candidate columns, (rows, k) int64, node
    i owning the next sizes[i] rows, and y holds their 0/1 labels. Node i
    scores with exact integer fractions when exact[i] holds (default:
    sizes[i] <= EXACT_SPLIT_LIMIT), else in float64. Returns int64 arrays
    (column, threshold, found) with one entry per node, each equal to
    what :func:`_best_split_loop` returns for that node's rows with
    feats = arange(k).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_nodes = sizes.shape[0]
    col_out = np.full(n_nodes, -1, dtype=np.int64)
    thr_out = np.zeros(n_nodes, dtype=np.int64)
    found_out = np.zeros(n_nodes, dtype=np.int64)
    if x.size == 0:
        return col_out, thr_out, found_out
    k = x.shape[1]
    y = np.asarray(y, dtype=np.int64)
    row_node = np.repeat(np.arange(n_nodes), sizes)
    tot1 = np.bincount(row_node, weights=y,
                       minlength=n_nodes).astype(np.int64)
    tot0 = sizes - tot1
    parent = tot0 * tot0 + tot1 * tot1
    if exact is None:
        exact = sizes <= EXACT_SPLIT_LIMIT
    exact = np.asarray(exact, dtype=bool)

    # One segment per (node, column); one sort orders every segment by
    # value. Order among equal values does not matter.
    vals = np.asarray(x, dtype=np.int64).ravel()
    seg = (row_node[:, None] * k + np.arange(k)).ravel()
    order = np.lexsort((vals, seg))
    sv = vals[order]
    sseg = seg[order]
    c1_all = np.cumsum(np.repeat(y, k)[order])
    seg_len = np.repeat(sizes, k)
    seg_start = np.cumsum(seg_len) - seg_len
    base = np.concatenate(([0], c1_all))[seg_start]

    # Cuts: adjacent sorted entries of one segment with distinct values.
    cut = np.flatnonzero((sseg[:-1] == sseg[1:]) & (sv[:-1] != sv[1:]))
    s = sseg[cut]
    node = s // k
    n = sizes[node]
    nl = cut - seg_start[s] + 1
    nr = n - nl
    c1 = c1_all[cut] - base[s]
    c0l = nl - c1
    c1r = tot1[node] - c1
    c0r = nr - c1r
    num = (c0l * c0l + c1 * c1) * nr + (c0r * c0r + c1r * c1r) * nl
    den = nl * nr
    score = num / den
    ex = exact[node]
    keep = np.where(ex, num * n > parent[node] * den,
                    score > parent[node] / n)
    if not keep.any():
        return col_out, thr_out, found_out
    cut, s, node, num, den, score, ex = (
        a[keep] for a in (cut, s, node, num, den, score, ex))

    # Candidates are ordered by (node, column, threshold), so a node's
    # first maximum is its tie-break winner. Rounding is monotone, so every
    # exact maximum shares its node's float maximum: pick the first float
    # maximum, then, in exact nodes, move to the first tied candidate that
    # beats the pick until none does; each move raises the pick's score.
    # (Distinct fractions can round alike only in nodes of ~2400+ rows.)
    lead = np.diff(node, prepend=-1) != 0
    top = np.maximum.reduceat(score, np.flatnonzero(lead))
    tied = np.flatnonzero(score == top[np.cumsum(lead) - 1])
    best = np.full(n_nodes, -1, dtype=np.int64)
    while tied.size:
        tnode = node[tied]
        lead = np.diff(tnode, prepend=-1) != 0
        best[tnode[lead]] = tied[lead]
        tied = tied[ex[tied]]
        pick = best[node[tied]]
        tied = tied[num[tied] * den[pick] > num[pick] * den[tied]]

    won = best[best >= 0]
    at = cut[won]
    wnode = node[won]
    col_out[wnode] = s[won] % k
    thr_out[wnode] = (sv[at] + sv[at + 1]) // 2
    found_out[wnode] = 1
    return col_out, thr_out, found_out


# ---------------------------------------------------------------------------
# microgrid stepping primitives
#
# The public operations in mgsim delegate to these, and the scenario loop
# inlines them under numba, so both views of the dynamics share one source.

def pv_current(v, irr, v_oc, i_sc, knee):
    """PV module current (A) at terminal voltage v under irradiance irr."""
    return irr * i_sc * (1.0 - (v / v_oc) ** knee)


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
    climb from a cold start. History always advances.
    """
    p_rt = v_rt * i_rt
    dp = p_rt - p_i
    dv = v_rt - v_i
    if dp < 0.0:
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


def _simulate_loop(n_steps, substeps, grid_dt, mppt_dt,
                   load_kw, irr, mppt_on, inv_on, pert_amp, pert_freq,
                   params):
    """Fixed-step scenario loop. One output row per grid step.

    params layout: [v_oc, i_sc, knee, d_i, i_ref0, ess_p_max, ess_cap,
    ess_e0, diesel_max, tau_d, diesel0, f_nom, k_f, damping, s_base_kw,
    symmetric_flag]. Output columns: freq_hz, pv_kw, diesel_kw, ess_kw,
    ess_kwh, i_ref.
    """
    v_oc = params[0]
    i_sc = params[1]
    knee = params[2]
    d_i = params[3]
    i_ref = params[4]
    ess_p_max = params[5]
    ess_cap = params[6]
    ess_e = params[7]
    diesel_max = params[8]
    tau_d = params[9]
    diesel = params[10]
    f_nom = params[11]
    k_f = params[12]
    damping = params[13]
    s_base = params[14]
    symmetric = params[15] > 0.5

    ramp_k = math.exp(-grid_dt / tau_d)
    two_pi = 2.0 * math.pi
    p_i = 0.0
    v_i = 0.0
    freq = f_nom
    out = np.empty((n_steps, 6), dtype=np.float64)
    for k in range(n_steps):
        g = irr[k]
        t0 = k * grid_dt
        if inv_on[k] != 0:
            acc = 0.0
            for j in range(substeps):
                i_act = i_ref
                lim = g * i_sc
                if i_act > lim:
                    i_act = lim
                v_rt = pv_voltage(i_act, g, v_oc, i_sc, knee)
                acc += v_rt * i_act
                if mppt_on[k] != 0:
                    amp = pert_amp[k]
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
# path selection

def _want_numba():
    flag = os.environ.get("HPC_SENTINEL_NO_NUMBA", "").strip().lower()
    return flag not in {"1", "true", "yes", "on"}


NUMBA_ENABLED = False
if _want_numba():
    try:
        from numba import njit

        pv_current = njit(cache=True)(pv_current)
        pv_voltage = njit(cache=True)(pv_voltage)
        pno_update = njit(cache=True)(pno_update)
        dispatch_update = njit(cache=True)(dispatch_update)
        frequency_step = njit(cache=True)(frequency_step)
        window_counts = njit(cache=True)(_window_counts_loop)
        best_split = njit(cache=True)(_best_split_loop)
        simulate_core = njit(cache=True)(_simulate_loop)
        NUMBA_ENABLED = True
    except ImportError:
        pass

if NUMBA_ENABLED:
    def best_split_batch(x, y, sizes, exact=None):
        """Per-node loop over the compiled :func:`best_split`; same
        contract as :func:`_best_split_batch_numpy`."""
        out = np.zeros((3, len(sizes)), dtype=np.int64)
        feats = np.arange(x.shape[1], dtype=np.int64)
        lo = 0
        for i, n in enumerate(sizes):
            ex = n <= EXACT_SPLIT_LIMIT if exact is None else exact[i]
            out[:, i] = best_split(np.ascontiguousarray(x[lo:lo + n]),
                                   np.asarray(y[lo:lo + n], dtype=np.int64),
                                   feats, bool(ex))
            lo += n
        return out[0], out[1], out[2]
else:
    window_counts = _window_counts_numpy
    best_split_batch = _best_split_batch_numpy
    simulate_core = _simulate_loop

    def best_split(x, y, feats, exact):
        """:func:`_best_split_loop` as a batch of one node."""
        col, thr, found = best_split_batch(x[:, feats], y, [x.shape[0]],
                                           [exact])
        if not found[0]:
            return np.int64(-1), np.int64(0), np.int64(0)
        return np.int64(feats[col[0]]), thr[0], found[0]


def backend():
    """Name of the active kernel path, for logs and the benchmark."""
    return "numba" if NUMBA_ENABLED else "pure"


def warmup():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    cats = np.array([0, 1, 2, 3, 4, 5, 0], dtype=np.int64)
    window_counts(cats, 3)
    x = np.array([[0, 1], [1, 0], [2, 1], [1, 2]], dtype=np.int64)
    y = np.array([0, 0, 1, 1], dtype=np.int64)
    best_split(x, y, np.array([0, 1], dtype=np.int64), True)
    n = 4
    params = np.array([800.0, 437.0, 10.0, 2.0, 40.0, 100.0, 100.0, 50.0,
                       1000.0, 2.0, 0.0, 60.0, 1.0, 0.5, 1000.0, 1.0])
    simulate_core(n, 2, 0.01, 0.005,
                  np.full(n, 500.0), np.full(n, 1.0),
                  np.ones(n, dtype=np.uint8), np.ones(n, dtype=np.uint8),
                  np.zeros(n), np.zeros(n), params)
