"""Projective measurement simulation with finite statistics.

The photon analyzer projects onto (|s+> +/- e^{2i beta}|s->)/sqrt(2)
(half-wave plate rotated by beta), or onto the circular basis when
`circular` is set (quarter-wave-plate configuration). APD1 always
carries the "+" projector; in circular mode it detects |sigma+>.

The atomic analysis transfers |psi> = sin(theta)|-1> + e^{i phi} cos(theta)|+1>
to F=2 ("transferred"); the orthogonal state remains in F=1 ("remained").
Implemented as an ideal projector pair; transfer imperfections are folded
into the readout-confusion probabilities of the noise model, which
`outcome_probabilities`, the one map from a checked state to rows, applies.

Outcome order in all four-vectors of counts/probabilities:
    [(F2, APD1), (F2, APD2), (F1, APD1), (F1, APD2)]

With the ideal state and atomic sigma_x analysis the exact conditional is
P(F=1 | APD1, beta) = (1 - cos 2 beta)/2, zero at beta = 0.

Record k of a dataset with seed s draws from the substream keyed by (s, k),
seeded as numpy's SeedSequence(entropy=s, spawn_key=(k,)) seeds it, in one
pass over all keys by `record_rngs`, which refuses a key it would misread:
numpy's SeedSequence(s) mixes the seed's words, and only the key step and
generate_state are computed here.
The counts CSV is written as csv.writer's default dialect would write it,
and read through csv.reader.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .artifacts import json_text
from .states import NoiseModel, apply_noise

COUNT_COLUMNS = ("n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2")
MAX_COUNT = 2**53   # a float64 holds every whole count up to it exactly


@dataclass(frozen=True)
class PhotonSetting:
    """Analyzer configuration: linear rotation angle beta, or circular basis."""

    beta: float = 0.0
    circular: bool = False


@dataclass(frozen=True)
class AtomSetting:
    """STIRAP polarization angles selecting the transferred superposition."""

    theta: float
    phi: float = 0.0


@dataclass(frozen=True)
class MeasurementSetting:
    atom: AtomSetting
    photon: PhotonSetting


# Canonical Pauli analysis settings.
ATOM_SX = AtomSetting(theta=math.pi / 4, phi=0.0)
ATOM_SY = AtomSetting(theta=math.pi / 4, phi=math.pi / 2)
ATOM_SZ = AtomSetting(theta=math.pi / 2, phi=0.0)   # transfers |-1>, the sigma_z=+1 state
PHOTON_SX = PhotonSetting(beta=0.0)
PHOTON_SY = PhotonSetting(beta=math.pi / 4)
PHOTON_SZ = PhotonSetting(circular=True)


def outcome_operators(settings):
    """Stacked outcome operators Pi_a (x) Pi_d, four per setting in outcome
    order: shape (4 * len(settings), 4, 4). This is the only place a setting
    is interpreted; tomography builds its design matrix from these operators.
    A setting with an angle that is not finite, or a `circular` that is not
    True or False ("false" is not read as true), is an error naming it
    (counted from 1)."""
    for n, s in enumerate(settings):
        if not all(map(math.isfinite, (s.atom.theta, s.atom.phi, s.photon.beta))):
            raise ValueError(f"record {n + 1} ({s.atom}, {s.photon}): angles must be finite")
        if not isinstance(s.photon.circular, bool):
            raise ValueError(f"record {n + 1} ({s.atom}, {s.photon}): field 'circular' "
                             "must be True or False")
    # per setting, the atomic ket transferred to F=2 and the photon ket APD1
    # detects, from scalar math.sin, math.cos and np.exp: the artifacts
    # depend on their last bits
    kets = np.array([(math.sin(s.atom.theta), np.exp(1j * s.atom.phi) * math.cos(s.atom.theta),
                      1.0, np.exp(2j * s.photon.beta)) for s in settings],
                    dtype=complex).reshape(-1, 2, 2)   # (0, 2, 2) when empty
    kets[:, 1] /= math.sqrt(2)
    kets[np.array([s.photon.circular for s in settings], dtype=bool), 1] = (1, 0)   # |sigma+>
    p = kets[..., :, None] * kets.conj()[..., None, :]   # (setting, atom or photon, 2, 2)
    pairs = np.stack([p, np.eye(2, dtype=complex) - p], axis=2)   # the pair (P, I - P) of each
    a, d = pairs[:, 0], pairs[:, 1]
    # axes (setting, atom outcome, detector, atom row, photon row, atom column,
    # photon column): entry a_ij * d_kl, the one product np.kron takes
    return (a[:, :, None, :, None, :, None] * d[:, None, :, None, :, None, :]).reshape(-1, 4, 4)


def outcome_probabilities(rho, operators, noise: NoiseModel):
    """Outcome rows, one of four per setting, under the whole noise model:
    `apply_noise` checks rho and applies the channels, tr(rho Pi) is clipped
    at zero and normalized per row, then the readout confusion (eps01 =
    P(reported F=1 | true transferred), eps10 = the reverse) relabels every
    row's atomic outcomes. A non-state is refused here, not clipped into rows."""
    p = np.clip(np.einsum("kij,ji->k", operators, apply_noise(rho, noise)).real,
                0.0, None).reshape(-1, 4)
    p /= p.sum(axis=1, keepdims=True)
    f2, f1 = p[:, :2], p[:, 2:]
    return np.hstack([(1 - noise.eps01) * f2 + noise.eps10 * f1,
                      noise.eps01 * f2 + (1 - noise.eps10) * f1])


@dataclass
class Dataset:
    """Count records: S settings and one (S, 4) array of their counts in
    outcome order (floats in exact mode), validated as a whole: each cell
    from 0 to 2**53 (`MAX_COUNT`), each row's total at least 1."""

    settings: list
    records: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.settings = list(self.settings)
        if not self.settings:
            raise ValueError("a dataset needs at least one record")
        self.records = np.asarray(self.records, dtype=float)
        if self.records.shape != (len(self.settings), 4):
            raise ValueError(f"records must have shape ({len(self.settings)}, 4) to match "
                             f"the settings, got {self.records.shape}")
        # NaN fails both comparisons; only rows of good cells are summed, so none overflows
        cells_ok = ((self.records >= 0) & (self.records <= MAX_COUNT)).all(axis=1)
        bad = ~cells_ok | (self.records.sum(axis=1, where=cells_ok[:, None]) < 1.0 - 1e-9)
        if bad.any():
            k = int(np.argmax(bad))
            problem = ("counts must be four finite non-negative cells of at most 2**53"
                       if not cells_ok[k] else "total count must be at least 1")
            raise ValueError(f"row {k + 1}: {problem}")


def check_integer(name, value, low):
    """value as an int, refused by name unless it is an integer of at least
    low: a float or a string is not truncated or parsed, nor a bool read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


# numpy.random.SeedSequence's hash constants, and its 32-bit wrap
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(h, mult, n):
    """The n hash steps from constant h: what each value is xored with, then
    multiplied by, as uint32 arrays."""
    hs = np.array([h * pow(mult, j, 1 << 32) & _MASK for j in range(n + 1)], np.uint32)
    return hs[:-1], hs[1:]


_GENERATE = _hash_constants(_INIT_B, _MULT_B, 8)   # generate_state's 8 words of 4 uint64s


class _State(ISeedSequence):
    """A substream's precomputed seed state, for PCG64 to seed itself from:
    PCG64 asks for generate_state(4, np.uint64)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def record_rngs(seed, keys):
    """One generator per key k, on the substream keyed by (seed, k): each
    draws what default_rng(SeedSequence(entropy=seed, spawn_key=(k,))) draws,
    so records can be produced in any order, or in parallel, with identical
    results. The seed is an integer >= 0 and each key one in [0, 2**32),
    refused by name otherwise (2.5 is not read as 2, nor True as 1).
    numpy's SeedSequence(seed) mixes the seed's words into the pool; each key
    is hashed into it and the pool hashed out here, all keys at once."""
    seed = check_integer("seed", seed, 0)
    keys = [check_integer("key", k, 0) for k in keys]
    if keys and max(keys) > _MASK:
        raise ValueError(f"key must be below 2**32, got {max(keys)}")
    pool = np.random.SeedSequence(seed).pool   # a missing word hashes as 0, as key padding does
    # the pool's hash steps so far: one per pool word, 12 for the cross mix and
    # 4 per seed word past the fourth, 4 * max(words, 4) in all
    h = _INIT_A * pow(_MULT_A, 4 * max(-(-seed.bit_length() // 32), 4), 1 << 32) & _MASK
    # the key, one more entropy word, hashed into each pool word (uint32 arithmetic wraps)
    xor, mult = _hash_constants(h, _MULT_A, 4)
    v = (np.asarray(keys, np.uint32)[:, None] ^ xor) * mult
    v ^= v >> 16
    p = pool * np.uint32(_MIX_L) - v * np.uint32(_MIX_R)
    p ^= p >> 16
    xor, mult = _GENERATE
    state = (np.tile(p, 2) ^ xor) * mult
    state ^= state >> 16
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [Generator(PCG64(_State(w))) for w in words]


def simulate_settings(rho, settings, n_per_setting, noise=None, seed=0, exact=False):
    """Dataset over a list of settings, one record each. Record k is a
    multinomial draw of n_per_setting trials from the substream keyed by
    (seed, k), every record's generator seeded in one `record_rngs` pass; with `exact`
    the records are the expected counts n_per_setting * p instead (the
    infinite-statistics mode used to separate systematic from statistical
    checks). Draws need a whole n_per_setting from 1 to 2**53 (`MAX_COUNT`),
    expected counts a number in that range, and a bool or a string is neither;
    the metadata holds it as a Python int when whole. The seed must be an integer >= 0
    and `exact` True or False in either mode ("no" is not read as true)."""
    seed = check_integer("seed", seed, 0)
    if not isinstance(exact, bool):
        raise ValueError(f"exact must be True or False, got {exact!r}")
    # a bool is not a trial count, nor a string a number (numpy's bool is no Real)
    if (isinstance(n_per_setting, bool) or not isinstance(n_per_setting, numbers.Real)
            or not (1 <= n_per_setting <= MAX_COUNT and (exact or n_per_setting % 1 == 0))):
        raise ValueError(f"n_per_setting must be >= 1, at most 2**53 and a finite "
                         f"{'number' if exact else 'whole number'}, got {n_per_setting!r}")
    n_per_setting = int(n_per_setting) if n_per_setting % 1 == 0 else float(n_per_setting)
    noise = noise or NoiseModel()
    settings = list(settings)
    operators = outcome_operators(settings)
    probs = outcome_probabilities(rho, operators, noise)
    if exact:
        records = n_per_setting * probs
    else:
        probs = probs / probs.sum(axis=1, keepdims=True)
        records = [rng.multinomial(n_per_setting, p)
                   for rng, p in zip(record_rngs(seed, range(len(probs))), probs)]
    return Dataset(
        settings=settings,
        records=records,
        metadata={
            "seed": seed,
            "noise": asdict(noise),
            "mode": "simulated",
            "exact": exact,
            "n_per_setting": n_per_setting,
        },
    )


# ----------------------------------------------------------------------
# Dataset CSV + JSON-sidecar serialization. One row per record:
#   theta, phi, beta, n_f2_apd1, n_f2_apd2, n_f1_apd1, n_f1_apd2, photon_basis
# Angles in radians with 17 significant digits (lossless float round
# trip), at most 2 pi in magnitude. photon_basis is "linear" or "circular";
# readers tolerate its absence (linear assumed).
# ----------------------------------------------------------------------

_CSV_NUMBERS = ("theta", "phi", "beta") + COUNT_COLUMNS


def sidecar_path(csv_path):
    return str(csv_path).removesuffix(".csv") + ".meta.json"


def counts_files(dataset: Dataset, path):
    """{path: the records' CSV text, its sidecar's path: the metadata's JSON
    text}, for `artifacts.commit`. Metadata that JSON cannot hold fails here."""
    # the rows csv.writer would write: no field needs quoting, CRLF ends each row;
    # Python floats format faster than numpy scalars, to the same text
    rows = [",".join(_CSV_NUMBERS + ("photon_basis",)) + "\r\n"]
    rows += [f"{s.atom.theta:.17g},{s.atom.phi:.17g},{s.photon.beta:.17g},{a:.17g},{b:.17g},"
             f"{c:.17g},{d:.17g},{'circular' if s.photon.circular else 'linear'}\r\n"
             for s, (a, b, c, d) in zip(dataset.settings, dataset.records.tolist())]
    return {path: "".join(rows), sidecar_path(path): json_text(dataset.metadata)}


def _csv_number(path, row_no, row, name):
    value = row[name]
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{path}: row {row_no}: field {name!r} must be a finite number, "
                         f"got {value!r}")
    return x


def _csv_header(path, header):
    """Every numeric column once, photon_basis at most once, nothing else."""
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    missing = [name for name in _CSV_NUMBERS if name not in header]
    unknown = [name for name in header if name not in _CSV_NUMBERS + ("photon_basis",)]
    if missing or unknown or len(set(header)) != len(header):
        raise ValueError(f"{path}: header {','.join(header)!r}: missing columns {missing}, "
                         f"unknown columns {unknown}, each column at most once")


def _csv_record(path, row_no, header, cells):
    if len(cells) != len(header):
        raise ValueError(f"{path}: row {row_no}: {len(cells)} fields, "
                         f"the header has {len(header)}")
    row = dict(zip(header, cells))
    theta, phi, beta, *counts = (_csv_number(path, row_no, row, name) for name in _CSV_NUMBERS)
    for name, angle in zip(_CSV_NUMBERS, (theta, phi, beta)):
        if abs(angle) > 2 * math.pi:   # a file in degrees, say: its design may have full rank
            raise ValueError(f"{path}: row {row_no}: field {name!r} is {row[name]}, beyond "
                             "2 pi in magnitude: angles are radians")
    basis = row.get("photon_basis", "linear")
    if basis not in ("linear", "circular"):
        raise ValueError(f"{path}: row {row_no}: field 'photon_basis' must be "
                         f"'linear' or 'circular', got {basis!r}")
    setting = MeasurementSetting(
        atom=AtomSetting(theta=theta, phi=phi),
        photon=PhotonSetting(beta=beta, circular=basis == "circular"),
    )
    return setting, counts


def read_counts_csv(path):
    """Dataset from a counts CSV and its sidecar, if present: a JSON object,
    with no NaN or infinity, whose `exact`, if given, is true or false; unless
    it is true, counts must be whole numbers, and none may exceed 2**53.
    Without a sidecar the counts are read as given, a fractional one too, with
    metadata {"mode": "ingested"}. Rows are numbered from 1 after the header,
    blank lines skipped; errors name the file, row and field. Both files are
    UTF-8, with or without a BOM."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            _csv_header(path, header)
            rows = [_csv_record(path, row_no, header, cells)
                    for row_no, cells in enumerate((c for c in reader if c), 1)]
    except (csv.Error, UnicodeDecodeError) as exc:   # not readable as CSV text
        raise ValueError(f"{path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no records after the header")
    settings, counts = zip(*rows)
    try:
        dataset = Dataset(settings=settings, records=counts, metadata={"mode": "ingested"})
    except ValueError as exc:   # names the row, numbered as in the file
        raise ValueError(f"{path}: {exc}") from exc
    sidecar = sidecar_path(path)
    try:
        with open(sidecar, encoding="utf-8-sig") as fh:
            meta = json.load(fh)
        json_text(meta)   # refuses the NaN and infinities json.load lets through
    except FileNotFoundError:
        return dataset
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ValueError(f"{sidecar}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: expected a JSON object, got {json.dumps(meta):.40}")
    if not isinstance(meta.get("exact", False), bool):   # it decides how the counts are read
        raise ValueError(f"{sidecar}: field 'exact' must be true or false, "
                         f"got {json.dumps(meta['exact'])}")
    whole = dataset.records % 1.0 == 0
    if not (meta.get("exact", False) or whole.all()):   # sampled counts are whole trials
        row, col = np.argwhere(~whole)[0]
        raise ValueError(f"{path}: row {row + 1}: field {COUNT_COLUMNS[col]!r} is "
                         f"{dataset.records[row, col].item()!r}, not a whole number of counts, "
                         f"and {sidecar} does not say \"exact\": true")
    dataset.metadata = meta
    return dataset
