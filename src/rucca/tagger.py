"""Sequence tagger: 4-layer bidirectional GRU with highway connections.

Two softmax heads share the encoder: TASK1 predicts per-token BIO labels
for the focus node's children, TASK2 predicts an auxiliary per-token
function tag (training support only, never used at inference).

Everything is plain numpy with hand-written backpropagation so gradients
are exact and runs are bit-deterministic under a fixed seed.
"""

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import bio
from .corpus import AUX_OUTSIDE, CorpusError, MaskedExample, expand
from .features import OOV, PAD, TOKEN_FEATURES, WORD_DIM, FeaturizedExample
from .graph import OUTSIDE


class NumericError(RuntimeError):
    """Non-finite value encountered during forward/backward/training."""


class CheckpointError(ValueError):
    """A checkpoint file that is malformed or disagrees with its config."""


N_LAYERS = 4  # BiGRU layers, each with a highway connection


@dataclass
class TaggerConfig:
    hidden: int = 128  # per direction; layer width is 2*hidden
    cat_dim: int = 16
    lambda_aux: float = 1.0
    seed: int = 13  # parameter initialisation and training shuffles

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.cat_dim < 0:
            raise ValueError("cat_dim must be >= 0")
        if not (np.isfinite(self.lambda_aux) and self.lambda_aux >= 0):
            raise ValueError("lambda_aux must be finite and >= 0")
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ValueError("seed must be >= 0")


@dataclass
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-3
    batch_size: int = 16
    grad_clip: float = 5.0
    tagger: TaggerConfig = field(default_factory=TaggerConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not self.grad_clip >= 0:  # NaN too
            raise ValueError("grad_clip must be >= 0 (0: no clipping)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(logits):
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def _check_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericError("non-finite values in %s" % name)


class Params(dict):
    """Name -> a copy of arrays[name], held as a view into one little-endian
    float64 vector, `flat`, in sorted-name order (the checkpoint body).
    Iteration keeps the order of `arrays`."""

    def __init__(self, arrays):
        names = sorted(arrays)
        ends = np.cumsum([np.size(arrays[name]) for name in names])
        self.flat = np.empty(ends[-1], dtype="<f8")
        views = dict(zip(names, np.split(self.flat, ends[:-1])))
        for name, a in arrays.items():
            self[name] = views[name].reshape(np.shape(a))
            self[name][...] = a  # no temporary copy, even of a transposed a

    def manifest(self):
        return [[name, list(self[name].shape)] for name in sorted(self)]


class Tagger:
    """Base of the taggers that tag one example at a time with
    predict(example, features). The parser calls predict_batch(examples,
    features) with the focus nodes of one depth of one sentence and its
    feature source (FeaturizerContext.sentence), which featurizes only
    when read; this base hands it to predict unread. The contract that
    parser.score_parses relies on: an output depends only on its example
    and the features its source gives, never on the decoder's settings.
    GruTagger and OracleTagger keep it; a stream of draws in call order
    keeps it only while the calls come in the same order."""

    def predict_batch(self, examples, features):
        return [self.predict(example, features) for example in examples]


class GruTagger:
    """Trainable tagger; tags a batch with one forward_batch."""

    def __init__(self, config: TaggerConfig, vocab, aux_vocab, draw=None):
        """vocab is fit_vocabularies' {feature name: {symbol: index}}.
        draw(std, shape) gives each weight tensor's initial values; by
        default normal draws seeded by config.seed."""
        self.config = config
        self.vocab = vocab
        self.aux_vocab = tuple(aux_vocab)
        self.aux_index = {a: i for i, a in enumerate(self.aux_vocab)}
        self.feature_names = sorted(vocab)
        self.input_dim = WORD_DIM + config.cat_dim * len(vocab) + 1
        if draw is None:
            draw = partial(np.random.default_rng(config.seed).normal, 0.0)
        self.params = self._init_params(draw)

    # -- parameters ---------------------------------------------------------

    def _init_params(self, draw):
        """Each weight is drawn (out, in), in the order below, and stored
        transposed, (in, out) row-major, as every product reads it."""
        cfg = self.config
        h, m = cfg.hidden, 2 * cfg.hidden
        params = {}

        def linear(name, rows, cols):
            params[name + "/W"] = draw(np.sqrt(1.0 / cols), (rows, cols)).T
            params[name + "/b"] = np.zeros(rows)

        for name in self.feature_names:
            params["emb/" + name] = draw(
                0.1, (len(self.vocab[name]), cfg.cat_dim))
        linear("in", m, self.input_dim)
        for layer in range(N_LAYERS):
            for d in ("f", "b"):
                # Drawn gate by gate (z, r, n), W before U, then stacked.
                blocks = [(draw(np.sqrt(1.0 / m), (h, m)),
                           draw(np.sqrt(1.0 / h), (h, h)))
                          for _ in range(3)]
                base = "l%d/%s/" % (layer, d)
                params[base + "W"] = np.concatenate([w for w, _ in blocks]).T
                params[base + "U"] = np.concatenate([u for _, u in blocks]).T
                params[base + "b"] = np.zeros(3 * h)
            linear("l%d/hw" % layer, m, m)
        linear("out1", bio.N_BIO, m)
        linear("out2", len(self.aux_vocab), m)
        return Params(params)

    # -- forward ------------------------------------------------------------

    def _input_matrix(self, feats: FeaturizedExample):
        cols = [feats.word_vectors]
        for name in self.feature_names:
            cols.append(self.params["emb/" + name][feats.categorical[name]])
        cols.append(feats.mwe[:, None])
        return np.concatenate(cols, axis=1)

    def _affine(self, x, prefix):
        """x @ W + b over x's last axis, as one product of all rows."""
        W = self.params[prefix + "W"]
        rows = x.reshape(-1, x.shape[-1])
        return (rows @ W + self.params[prefix + "b"]).reshape(
            x.shape[:-1] + (W.shape[1],))

    def _gru_layer(self, x, layer):
        """Both GRU directions of one layer over x (B, T, m), stepped
        together: the forward one from t = 0 to T - 1, the backward one
        on x[:, ::-1] -> ((Hf, Hb), (cache_f, cache_b)), each H (B, T, h)
        in its own direction's order."""
        B, T, h = x.shape[0], x.shape[1], self.config.hidden
        bases = ("l%d/f/" % layer, "l%d/b/" % layer)
        xs = (x, x[:, ::-1])
        # Every input projection, in one product per direction, stored
        # step-major so that each step reads and writes whole blocks.
        a_zr = np.empty((T, 2, B, 2 * h), dtype=x.dtype)
        a_n = np.empty((T, 2, B, h), dtype=x.dtype)
        for d, base in enumerate(bases):
            a = self._affine(xs[d].transpose(1, 0, 2), base)
            a_zr[:, d], a_n[:, d] = a[..., :2 * h], a[..., 2 * h:]
        hs = np.zeros((T + 1, 2, B, h), dtype=x.dtype)  # hs[t]: before step t
        gates = np.empty((T, 2, B, 3 * h), dtype=x.dtype)  # z, r, n
        rec = np.empty((T, 2, B, 3 * h), dtype=x.dtype)  # hs[t] @ U
        for t in range(T):
            for d, base in enumerate(bases):
                np.matmul(hs[t, d], self.params[base + "U"], out=rec[t, d])
            g = gates[t]
            g[..., :2 * h] = _sigmoid(a_zr[t] + rec[t, ..., :2 * h])
            z, r, n = g[..., :h], g[..., h:2 * h], g[..., 2 * h:]
            n[...] = np.tanh(a_n[t] + r * rec[t, ..., 2 * h:])
            hs[t + 1] = (1.0 - z) * n + z * hs[t]
        hs, gates, rec = (v.transpose(1, 2, 0, 3) for v in (hs, gates, rec))
        return (hs[0, :, 1:], hs[1, :, 1:]), tuple(
            {"x": xs[d], "hprev": hs[d, :, :-1], "gates": gates[d],
             "un": rec[d, :, :, 2 * h:]} for d in (0, 1))

    @np.errstate(over="ignore")  # _sigmoid's exp saturates to 0 or 1
    def forward_batch(self, feats_list):
        """-> ([TagDistribution], cache) for examples of one length T, run
        together: every array of the cache has a leading batch axis."""
        if len({feats.length for feats in feats_list}) != 1:
            raise ValueError("forward_batch needs one or more examples of "
                             "one length")
        f = np.stack([self._input_matrix(feats) for feats in feats_list])
        x = self._affine(f, "in/")
        layers = []
        for layer in range(N_LAYERS):
            (hf, hb), (cf, cb) = self._gru_layer(x, layer)
            y = np.concatenate([hf, hb[:, ::-1]], axis=2)
            gate = _sigmoid(self._affine(x, "l%d/hw/" % layer))
            out = gate * y + (1.0 - gate) * x
            layers.append({"x": x, "y": y, "gate": gate,
                           "cf": cf, "cb": cb})
            x = out
        logits1 = self._affine(x, "out1/")
        logits2 = self._affine(x, "out2/")
        _check_finite("forward pass", logits1, logits2)
        dists = [bio.TagDistribution(task1=t1) for t1 in _softmax(logits1)]
        cache = {"f": f, "layers": layers, "top": x,
                 "logits1": logits1, "logits2": logits2}
        return dists, cache

    def forward(self, feats: FeaturizedExample):
        """-> (TagDistribution, cache): forward_batch of one example, its
        cache a batch of one. The cache is reused by gradients()."""
        dists, cache = self.forward_batch([feats])
        return dists[0], cache

    def predict_batch(self, examples, features):
        """-> one TagDistribution per example, all from one forward."""
        return self.forward_batch([features(ex) for ex in examples])[0] \
            if examples else []

    # -- loss and gradients -------------------------------------------------

    def target_ids(self, example: MaskedExample):
        """-> (BIO label ids, aux label ids) of a training example; an
        example with no BIO target (a non-representable one) is a
        ValueError."""
        if example.target_bio is None:
            raise ValueError("example %s has no BIO target"
                             % example.passage_id)
        y1 = np.array([bio.BIO_INDEX[lb] for lb in example.target_bio])
        y2 = np.array([self.aux_index.get(a, self.aux_index[AUX_OUTSIDE])
                       for a in example.target_aux])
        return y1, y2

    @staticmethod
    def _xent(logits, targets):
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        return np.mean(lse - logits[np.arange(len(targets)), targets])

    def loss(self, feats, y1, y2, cache=None):
        if cache is None:
            _, cache = self.forward(feats)
        value = self._xent(cache["logits1"][0], y1)
        if self.config.lambda_aux != 0.0:
            value += self.config.lambda_aux * self._xent(cache["logits2"][0],
                                                         y2)
        return value, cache

    def _gru_backward(self, dH, cache, base, add):
        """Backpropagates dH through the first example of one direction's
        cache of a _gru_layer run, passing each of its tensors' gradients
        to add; returns dx."""
        W, U = self.params[base + "W"], self.params[base + "U"]
        T, h = dH.shape
        gates, un, hprev = (cache[k][0] for k in ("gates", "un", "hprev"))
        da = np.zeros((T, 3 * h))  # into the input projections a
        drec = np.zeros((T, 3 * h))  # into rec = hprev @ U
        carry = np.zeros(h)
        for t in range(T - 1, -1, -1):
            g = dH[t] + carry
            z, r, n = gates[t, :h], gates[t, h:2 * h], gates[t, 2 * h:]
            a_n = g * (1.0 - z) * (1.0 - n * n)
            da[t, :h] = g * (hprev[t] - n) * z * (1.0 - z)
            da[t, h:2 * h] = a_n * un[t] * r * (1.0 - r)
            da[t, 2 * h:] = a_n
            drec[t, :2 * h] = da[t, :2 * h]
            drec[t, 2 * h:] = a_n * r
            carry = g * z + drec[t] @ U.T
        add(base + "W", cache["x"][0].T @ da)
        add(base + "U", hprev.T @ drec)
        add(base + "b", da.sum(axis=0))
        return da @ W.T

    def gradients(self, feats, y1, y2, out=None, n=1):
        """Exact analytic gradients of loss(), each divided by n and added
        into out; without out, into a fresh zeroed Params."""
        dist, cache = self.forward(feats)
        value, _ = self.loss(feats, y1, y2, cache)
        T = feats.length
        if out is None:
            out = Params(self.params)
            out.flat.fill(0.0)

        def add(name, product):  # called once per tensor
            product /= n
            out[name] += product

        d1 = dist.task1.copy()
        d1[np.arange(T), y1] -= 1.0
        d1 /= T
        d2 = _softmax(cache["logits2"][0])
        d2[np.arange(T), y2] -= 1.0
        d2 *= self.config.lambda_aux / T

        top = cache["top"][0]
        add("out1/W", top.T @ d1)
        add("out1/b", d1.sum(axis=0))
        add("out2/W", top.T @ d2)
        add("out2/b", d2.sum(axis=0))
        dx = d1 @ self.params["out1/W"].T + d2 @ self.params["out2/W"].T

        for layer in range(N_LAYERS - 1, -1, -1):
            lc = cache["layers"][layer]
            x, y, gate = lc["x"][0], lc["y"][0], lc["gate"][0]
            dy = dx * gate
            dgate = dx * (y - x)
            dxl = dx * (1.0 - gate)
            da = dgate * gate * (1.0 - gate)
            add("l%d/hw/W" % layer, x.T @ da)
            add("l%d/hw/b" % layer, da.sum(axis=0))
            dxl = dxl + da @ self.params["l%d/hw/W" % layer].T
            h = self.config.hidden
            dxl = dxl + self._gru_backward(dy[:, :h], lc["cf"],
                                           "l%d/f/" % layer, add)
            dxl = dxl + self._gru_backward(dy[::-1, h:], lc["cb"],
                                           "l%d/b/" % layer, add)[::-1]
            dx = dxl

        add("in/W", cache["f"][0].T @ dx)
        add("in/b", dx.sum(axis=0))
        df = dx @ self.params["in/W"].T
        offset = WORD_DIM
        for name in self.feature_names:
            table = np.zeros_like(out["emb/" + name])
            np.add.at(table, feats.categorical[name],
                      df[:, offset:offset + self.config.cat_dim])
            add("emb/" + name, table)
            offset += self.config.cat_dim
        return value, out


# ---------------------------------------------------------------------------
# Training

class _Adam:
    CHUNK = 65536  # values per slice of a step: bounds its temporaries
    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params, grads):
        """Updates params in place, one chunk at a time; overwrites grads
        to save memory. Elementwise, so chunking changes no value."""
        self.t += 1
        b1t = 1.0 - self.B1 ** self.t
        b2t = 1.0 - self.B2 ** self.t
        for start in range(0, params.size, self.CHUNK):
            sl = slice(start, start + self.CHUNK)
            p, g, m, v = params[sl], grads[sl], self.m[sl], self.v[sl]
            m *= self.B1
            m += (1.0 - self.B1) * g
            v *= self.B2
            v += (1.0 - self.B2) * g * g
            denom = np.sqrt(np.divide(v, b2t, out=g), out=g)
            denom += self.EPS
            p -= m / b1t * self.lr / denom  # mhat * lr == lr * mhat


def clip_gradients(grads, max_norm):
    # Per tensor, in draw order: one dot product rounds differently.
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        grads.flat *= max_norm / total
    return total


def build_aux_vocab(examples):
    symbols = {AUX_OUTSIDE}
    for ex in examples:
        if ex.target_aux is not None:
            symbols.update(ex.target_aux)
    return tuple(sorted(symbols))


def train(examples, ctx, config: TrainConfig, dev_score=None,
          log_hook=None):
    """Mini-batch Adam training; returns (tagger, per-epoch log records).

    With dev_score (tagger -> dev F1), every epoch is scored and the
    parameters of the first best-scoring epoch are kept. Without it the
    final parameters are returned.
    """
    usable = [ex for ex in examples
              if ex.representable and ex.target_bio is not None]
    if not usable:
        raise CorpusError("no trainable examples")
    tagger = GruTagger(config.tagger, ctx.vocab, build_aux_vocab(usable))
    feats = [ctx.featurize(ex) for ex in usable]
    targets = [tagger.target_ids(ex) for ex in usable]
    optimizer = _Adam(tagger.params.flat.size, config.learning_rate)
    rng = np.random.default_rng(config.tagger.seed)
    log = []
    best_f1 = -1.0
    best_flat = None
    acc = Params(tagger.params)  # each batch's mean gradient
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(usable))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            acc.flat.fill(0.0)
            try:
                for i in batch:
                    value, _ = tagger.gradients(feats[i], *targets[i], acc,
                                                len(batch))
                    if not np.isfinite(value):
                        raise NumericError("non-finite loss")
                    losses.append(value)
                # The mean is finite only if every example's gradient is.
                _check_finite("backward pass", acc.flat)
            except NumericError as exc:
                raise NumericError("epoch %d batch %d: %s" % (
                    epoch, start // config.batch_size, exc)) from None
            clip_gradients(acc, config.grad_clip)
            optimizer.step(tagger.params.flat, acc.flat)
        record = {"epoch": epoch, "loss": float(np.mean(losses))}
        if dev_score is not None:
            record["dev_f1"] = dev_score(tagger)
            if record["dev_f1"] > best_f1:
                best_f1 = record["dev_f1"]
                if best_flat is None:
                    best_flat = np.empty_like(tagger.params.flat)
                np.copyto(best_flat, tagger.params.flat)
        log.append(record)
        if log_hook:
            log_hook(record)
    if best_flat is not None:
        tagger.params.flat[:] = best_flat
    return tagger, log


# ---------------------------------------------------------------------------
# Oracle tagger (test double emitting one-hot gold distributions)

class OracleTagger(Tagger):
    """Implements the tagger interface from the gold passages: an
    example's passage id and mask give the BIO target that corpus.expand
    gives the first gold node with that mask. So a gold unary chain that
    repeats a mask (H > P > C > C) does not round-trip: the parse repeats
    that node until max_depth."""

    def __init__(self, passages):
        # A later passage with the same id replaces an earlier one.
        gold = {p.passage_id: p for p in passages}
        self.targets = {}  # (passage id, mask) -> target_bio or None
        for pid, passage in gold.items():
            for ex in expand(passage):
                self.targets.setdefault((pid, ex.mask), ex.target_bio)

    def predict(self, example: MaskedExample, feats) -> bio.TagDistribution:
        """One-hot target of the example's mask; all O when the mask names
        no gold node or that node's children are not representable. feats,
        the sentence's feature source, is never read."""
        target = self.targets.get((example.passage_id, example.mask))
        if target is None:
            target = [OUTSIDE] * len(example.tokens)
        return bio.TagDistribution(task1=bio.one_hot(target))


# ---------------------------------------------------------------------------
# Checkpoints (deterministic binary container)

MAGIC = b"RUCCA1\n"
# 4: weights stored (in, out), the header in the sha256 (3: one vocabulary
# dict, numpy and BLAS builds; 2: one W, U and b per direction; 1: per gate)
VERSION = 4


def _digest(header, flat):
    """sha256 of the header but its sha256, numpy and blas, then the body."""
    fields = {k: v for k, v in header.items()
              if k not in ("sha256", "numpy", "blas")}
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    digest.update(flat)
    return digest.hexdigest()


def save_checkpoint(tagger: GruTagger, path):
    """Identical models give identical files on one numpy and BLAS build,
    which the header names."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    header = {
        "version": VERSION,
        "config": asdict(tagger.config),
        "aux_vocab": list(tagger.aux_vocab),
        "vocab": tagger.vocab,
        "tensors": tagger.params.manifest(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }
    header["sha256"] = _digest(header, tagger.params.flat)
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(tagger.params.flat)


def load_checkpoint(path) -> GruTagger:
    """Raises CheckpointError unless the file holds exactly one checkpoint
    whose vocabulary has the tables fit_vocabularies makes and whose
    tensors have the shapes its config gives; last, that its header and
    tensors have the sha256 the header gives."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise CheckpointError("not a rucca checkpoint: %s" % path)
        try:
            (size,) = struct.unpack("<Q", f.read(8))
            if size > os.fstat(f.fileno()).st_size:  # before read allocates it
                raise ValueError("header size %d exceeds the file" % size)
            header = json.loads(f.read(size).decode("utf-8"))
            if header["version"] != VERSION:
                raise CheckpointError("checkpoint version %s, expected %d"
                                      % (header["version"], VERSION))
            vocab = header["vocab"]
            names = {name for name in vocab if not name.startswith("morph:")}
            expected = {*TOKEN_FEATURES, "mask"}
            if names != expected:
                raise ValueError("vocabulary tables %s missing, %s unknown"
                                 % (sorted(expected - names),
                                    sorted(names - expected)))
            # featurize sends unseen symbols to 1; ids index table rows
            for name, table in vocab.items():
                ids = list(table.values())
                if not (all(type(i) is int for i in ids)
                        and sorted(ids) == list(range(len(ids)))
                        and table.get(PAD) == 0 and table.get(OOV) == 1):
                    raise ValueError("vocabulary %s does not map <pad>, "
                                     "<oov>, ... onto 0..n-1" % name)
            # The tensors are read below: allocate them, draw nothing.
            tagger = GruTagger(TaggerConfig(**header["config"]), vocab,
                               header["aux_vocab"],
                               draw=lambda std, shape: np.empty(shape))
            tensors, digest = header["tensors"], header["sha256"]
        except (struct.error, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            raise CheckpointError("%s: bad checkpoint header: %s"
                                  % (path, exc)) from None
        if tensors != tagger.params.manifest():
            raise CheckpointError("%s: tensors do not match the config"
                                  % path)
        if f.readinto(tagger.params.flat) != tagger.params.flat.nbytes:
            raise CheckpointError("%s: truncated tensor data" % path)
        if f.read(1):
            raise CheckpointError("%s: trailing bytes after the last tensor"
                                  % path)
    if _digest(header, tagger.params.flat) != digest:
        raise CheckpointError("%s: tensor data does not match its sha256, "
                              "or a header field it covers changed" % path)
    return tagger
