"""Independent brute-force re-implementations used as test oracles.

Everything here recomputes counts character by character, deliberately
avoiding the package's regex-based code paths.
"""
import numpy as np

VOWELS = "aeiouy"
TERMINATORS = ".!?"


def _is_token_char(ch: str) -> bool:
    return ch.isalnum() or ch == "'"


def oracle_tokens(text: str) -> list[str]:
    tokens = []
    current = ""
    for ch in text:
        if _is_token_char(ch):
            current += ch
        else:
            if current:
                tokens.append(current)
            current = ""
    if current:
        tokens.append(current)
    return tokens


def oracle_sentences(text: str) -> list[str]:
    segments = []
    current = ""
    i = 0
    n = len(text)
    while i < n:
        current += text[i]
        if text[i] in TERMINATORS:
            while i + 1 < n and text[i + 1] in TERMINATORS:
                i += 1
                current += text[i]
            segments.append(current)
            current = ""
        i += 1
    if current:
        segments.append(current)
    return [s.strip() for s in segments if oracle_tokens(s)]


def oracle_syllables(word: str) -> int:
    w = word.lower()
    groups = 0
    prev_vowel = False
    for ch in w:
        is_vowel = ch in VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if w.endswith("e") and groups >= 2:
        groups -= 1
    return max(1, groups)


def oracle_clean(raw: str) -> str:
    text = raw
    while True:
        cleaned = _oracle_clean_once(text)
        if cleaned == text:
            return cleaned
        text = cleaned


def _oracle_clean_once(text: str) -> str:
    text = text.lower()
    # strip URL-like substrings: http(s):// or www. followed by non-spaces
    kept = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("http://", i) or text.startswith("https://", i) or text.startswith("www.", i):
            while i < n and not text[i].isspace():
                i += 1
        else:
            kept.append(text[i])
            i += 1
    text = "".join(kept)
    # character whitelist; all whitespace becomes plain space
    kept = []
    for ch in text:
        if ch.isspace():
            kept.append(" ")
        elif ch.isalnum() or ch in ".!?":
            kept.append(ch)
    text = "".join(kept)
    # collapse space runs, trim
    out = []
    prev_space = False
    for ch in text:
        if ch == " ":
            if not prev_space:
                out.append(ch)
            prev_space = True
        else:
            out.append(ch)
            prev_space = False
    return "".join(out).strip()


def oracle_elm(doc, sentiment_entries: dict, urgency_words: set) -> list[float]:
    """All ten features recomputed independently from the document fields."""
    tokens = oracle_tokens(doc.clean_text)
    if not tokens:
        central = [0.0, 0.0, 0.0, 0.0, 0.0]
    else:
        words = len(tokens)
        sentences = len(oracle_sentences(doc.clean_text))
        syllables = sum(oracle_syllables(t) for t in tokens)
        c1 = 0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59
        unique = len({t.lower() for t in tokens})
        polarity = sum(sentiment_entries.get(t.lower(), 0.0) for t in tokens) / words
        central = [c1, unique / words, polarity, float(words), words / sentences]
    raw = doc.raw_text
    raw_tokens = oracle_tokens(raw)
    if not raw_tokens:
        peripheral = [0.0, 0.0, 0.0, 0.0, 0.0]
    else:
        n = len(raw_tokens)
        bang = sum(1 for ch in raw if ch == "!")
        quest = sum(1 for ch in raw if ch == "?")
        caps = sum(1 for t in raw_tokens if t[0].isupper())
        all_caps = sum(
            1
            for t in raw_tokens
            if len(t) >= 2 and all(c.isalpha() and c.isupper() for c in t)
        )
        urgent = sum(1 for t in raw_tokens if t.lower() in urgency_words)
        peripheral = [bang / n, quest / n, caps / n, float(all_caps), urgent / n]
    return central + peripheral


def mann_whitney_auc(scores, labels) -> float:
    """Pairwise concordance enumeration; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_roc_curve(scores, labels) -> tuple[tuple, tuple, tuple]:
    """(fpr, tpr, thresholds) of the threshold sweep, one row at a time:
    tied scores share one point, and a row whose label is not 1 counts as a
    false positive."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    points = [(0.0, 0.0)]
    thresholds = [np.inf]
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        cut = sorted_scores[i]
        while i < n and sorted_scores[i] == cut:
            if sorted_labels[i] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(cut))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
        thresholds.append(-np.inf)
    fpr, tpr = zip(*points)
    return fpr, tpr, tuple(thresholds)


def numeric_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f() w.r.t. x, in place."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        f_plus = f()
        flat[i] = old - eps
        f_minus = f()
        flat[i] = old
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def grads_close(analytic: np.ndarray, numeric: np.ndarray, rel_tol: float = 1e-4,
                abs_floor: float = 1e-7) -> bool:
    """Elementwise relative error below rel_tol, with a tiny absolute floor
    for entries where the true gradient is essentially zero."""
    diff = np.abs(analytic - numeric)
    tol = rel_tol * np.maximum(np.abs(analytic), np.abs(numeric)) + abs_floor
    return bool(np.all(diff <= tol))


def oracle_lstm(params: dict, seq: np.ndarray, last: np.ndarray, dh_final: np.ndarray):
    """Stacked-gate LSTM (gates i, f, g, o along the last axis of Wx, Wh, b)
    stepped one timestep at a time, batch-major, with the sigmoid as
    1 / (1 + exp(-x)). Returns each row's h after step last[b], the gradient
    w.r.t. seq and the parameter gradients, for dh_final entering each row
    at its last step."""
    wx, wh, b = params["Wx"], params["Wh"], params["b"]
    batch, steps, _ = seq.shape
    hsz = wh.shape[0]

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    h = np.zeros((batch, hsz))
    c = np.zeros((batch, hsz))
    out = np.empty((batch, hsz))
    cache = []
    for t in range(steps):
        x_t = seq[:, t, :]
        pre = x_t @ wx + h @ wh + b
        i = sig(pre[:, 0 * hsz : 1 * hsz])
        f = sig(pre[:, 1 * hsz : 2 * hsz])
        g = np.tanh(pre[:, 2 * hsz : 3 * hsz])
        o = sig(pre[:, 3 * hsz : 4 * hsz])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        cache.append((x_t, h, c, i, f, g, o, tanh_c))
        c = c_new
        h = o * tanh_c
        ends = last == t
        out[ends] = h[ends]

    grads = {name: np.zeros_like(p) for name, p in params.items()}
    dseq = np.zeros(seq.shape)
    dh = np.zeros((batch, hsz))
    dc = np.zeros((batch, hsz))
    for t in range(steps - 1, -1, -1):
        ends = last == t
        dh[ends] += dh_final[ends]
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = cache[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c**2)
        dpre = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f), dc * i * (1.0 - g**2), do * o * (1.0 - o)],
            axis=1,
        )
        grads["Wx"] += x_t.T @ dpre
        grads["Wh"] += h_prev.T @ dpre
        grads["b"] += dpre.sum(axis=0)
        dseq[:, t, :] = dpre @ wx.T
        dh = dpre @ wh.T
        dc = dc * f
    return out, dseq, grads


def oracle_embedding_grad(vocab_size: int, ids: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Embedding-table gradient: each output row added in float64 to its
    id's row one at a time with np.add.at, then the padding row (id 0)
    zeroed."""
    dim = dout.shape[-1]
    grad = np.zeros((vocab_size, dim))
    np.add.at(grad, ids.reshape(-1), dout.reshape(-1, dim).astype(np.float64))
    grad[0] = 0.0
    return grad


def oracle_conv(filters: np.ndarray, bias: np.ndarray, emb: np.ndarray, dout: np.ndarray):
    """Valid 1-D convolution over the token axis with ReLU, summed one
    kernel offset at a time. Returns the output, the gradient w.r.t. emb and
    the parameter gradients, for the output gradient dout."""
    _, kernel, _ = filters.shape
    out_len = emb.shape[1] - kernel + 1
    views = [emb[:, j : j + out_len] for j in range(kernel)]
    pre = bias + sum(np.einsum("btd,fd->btf", v, filters[:, j]) for j, v in enumerate(views))
    dpre = dout * (pre > 0)
    demb = np.zeros(emb.shape)
    for j in range(kernel):
        demb[:, j : j + out_len] += np.einsum("btf,fd->btd", dpre, filters[:, j])
    dfilters = np.stack([np.einsum("btf,btd->fd", dpre, v) for v in views], axis=1)
    return np.maximum(pre, 0.0), demb, {"filters": dfilters, "bias": dpre.sum(axis=(0, 1))}


def oracle_adam(params: list, grads: list, m: list, v: list, t: int, lr: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Adam step t (counted from 1) one array at a time: updates each of
    params in place and replaces the moments m[i] and v[i] with new arrays."""
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        m_hat = m[i] / (1.0 - beta1**t)
        v_hat = v[i] / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def oracle_early_stop(val_losses, patience: int) -> tuple[int, int]:
    """(epochs run, epoch whose parameters are kept) when epoch e, counted
    from 1, ends with validation loss val_losses[e - 1]: training stops at
    the first epoch that comes `patience` epochs after the lowest loss so
    far, and keeps that lowest epoch; patience <= 0 runs every epoch and
    keeps the last."""
    if patience <= 0:
        return len(val_losses), len(val_losses)
    best = 0
    for epoch in range(1, len(val_losses) + 1):
        if best == 0 or val_losses[epoch - 1] < val_losses[best - 1]:
            best = epoch
        elif epoch - best >= patience:
            return epoch, best
    return len(val_losses), best
