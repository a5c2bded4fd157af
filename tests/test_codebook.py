"""Codebook construction tests: Sylvester rows against the recursion,
pairwise distance guarantees, label encoding, and the CSV export."""

import csv
import tracemalloc

import numpy as np
import pytest

from noisylab.codebook import (HadamardCodebook, MAX_CODE_BITS, default_code_bits,
                               derive_codebook, next_pow2, save_codebook_csv,
                               sylvester_rows)
from noisylab.errors import CapacityError, ConfigError
from oracles import encode_label, pairwise_hamming, sylvester, targets_for


def kron_hadamard(k):
    """Independent construction via repeated Kronecker products."""
    base = np.array([[1, 1], [1, -1]], dtype=np.int64)
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < k:
        h = np.kron(base, h)
    return h


def hamming(a, b):
    return int(np.sum(a != b))


class TestSylvesterRows:
    def test_base_case(self):
        assert np.array_equal(sylvester_rows(1, 1), [[1]])

    def test_order_two(self):
        assert np.array_equal(sylvester_rows(2, 2), [[1, 1], [1, -1]])

    def test_order_four_pair_distances(self):
        h = sylvester_rows(4, 4)
        dists = [hamming(h[i], h[j]) for i in range(4) for j in range(i + 1, 4)]
        assert len(dists) == 6
        assert all(d == 2 for d in dists)

    def test_rows_orthogonal(self):
        for k in (2, 8, 32):
            h = sylvester_rows(k, k)
            assert np.array_equal(h @ h.T, k * np.eye(k, dtype=np.int64))

    def test_matches_kronecker_oracle(self):
        for k in (2, 4, 16, 64):
            assert np.array_equal(sylvester(k), kron_hadamard(k))
            assert np.array_equal(sylvester_rows(k, k), kron_hadamard(k))

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32, 64])
    def test_every_block_is_the_recursion_truncated(self, k):
        """Every rows x cols block up to k x k, square or not, powers of two
        or not, is the top-left block of the recursive build, as int64."""
        full = sylvester(k)
        for rows in range(1, k + 1):
            for cols in range(1, k + 1):
                block = sylvester_rows(rows, cols)
                assert block.dtype == np.int64
                assert np.array_equal(block, full[:rows, :cols]), (rows, cols)

    @pytest.mark.parametrize("rows,cols", [(3, 100), (100, 3), (65, 129), (12, 10)])
    def test_truncated_blocks_past_64(self, rows, cols):
        want = sylvester(next_pow2(max(rows, cols)))[:rows, :cols]
        assert np.array_equal(sylvester_rows(rows, cols), want)


class TestDefaultCodeBits:
    @pytest.mark.parametrize("classes,bits", [(2, 16), (8, 16), (9, 32),
                                              (10, 32), (16, 32), (64, 128)])
    def test_table(self, classes, bits):
        assert default_code_bits(classes) == bits

    @pytest.mark.parametrize("v,want", [(0, 1), (1, 1), (2, 2), (3, 4), (8, 8),
                                        (9, 16), (4097, 8192)])
    def test_next_pow2(self, v, want):
        assert next_pow2(v) == want


class TestDeriveCodebook:
    def test_ten_classes_sixteen_bits(self):
        cb = derive_codebook(16, 10)
        d = pairwise_hamming(cb.codewords)
        off = d[~np.eye(10, dtype=bool)]
        assert off.size == 90  # 45 unordered pairs, both directions
        assert np.all(off == 8)

    def test_smallest_case(self):
        cb = derive_codebook(2, 2)
        assert np.array_equal(cb.codewords, [[1, 1], [1, -1]])
        assert hamming(cb.codewords[0], cb.codewords[1]) == 1

    def test_full_eight(self):
        cb = derive_codebook(8, 8)
        dists = [hamming(cb.codewords[i], cb.codewords[j])
                 for i in range(8) for j in range(i + 1, 8)]
        assert len(dists) == 28
        assert all(d == 4 for d in dists)

    def test_capacity_error_names_both(self):
        with pytest.raises(CapacityError) as exc:
            derive_codebook(8, 9)
        assert "8" in str(exc.value) and "9" in str(exc.value)

    def test_width_over_the_cap_refused_before_building(self, monkeypatch):
        def build(rows, cols):
            raise AssertionError(f"built {rows} Sylvester rows of {cols} bits")
        monkeypatch.setattr("noisylab.codebook.sylvester_rows", build)
        with pytest.raises(CapacityError, match=f"{2 * MAX_CODE_BITS} bits"):
            derive_codebook(2 * MAX_CODE_BITS, 3)

    def test_widest_codebook_takes_classes_by_bits_memory(self):
        """The widest codebook is formed in C x K memory, not K x K: a
        4,096-square int64 matrix alone would take 128 MiB."""
        tracemalloc.start()
        try:
            cb = derive_codebook(MAX_CODE_BITS, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cb.codewords.shape == (3, MAX_CODE_BITS)
        assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"

    def test_rejects_bad_bits(self):
        """Widths that are not a power of two >= 2; the Sylvester
        construction itself trusts this rule."""
        for bits in (0, 1, 3, 6, 12):
            with pytest.raises(ConfigError):
                derive_codebook(bits, 1)
        with pytest.raises(ConfigError):
            derive_codebook(12, 4)

    def test_targets_are_bit_remap(self):
        cb = derive_codebook(32, 10)
        assert np.array_equal(cb.targets, (cb.codewords + 1) / 2)
        assert set(np.unique(cb.targets)) <= {0.0, 1.0}

    def test_codewords_injective(self):
        cb = derive_codebook(64, 64)
        assert len({tuple(row) for row in cb.codewords}) == 64


class TestEncodeLabel:
    def test_class_zero_all_ones(self):
        cb = derive_codebook(16, 5)
        cw, tgt = encode_label(cb, 0)
        assert np.all(cw == 1) and np.all(tgt == 1.0)

    def test_two_bit_class_one(self):
        cb = derive_codebook(2, 2)
        cw, tgt = encode_label(cb, 1)
        assert np.array_equal(cw, [1, -1])
        assert np.array_equal(tgt, [1.0, 0.0])

    def test_row_five_matches_independent_recursion(self):
        cb = derive_codebook(16, 10)
        cw, _ = encode_label(cb, 5)
        assert np.array_equal(cw, kron_hadamard(16)[5])

    def test_out_of_range(self):
        cb = derive_codebook(16, 10)
        for y in (-1, 10):
            with pytest.raises(ValueError):
                encode_label(cb, y)

    def test_targets_for_batches(self):
        cb = derive_codebook(16, 4)
        labels = np.array([3, 0, 3, 1])
        tgt = cb.targets[labels]  # how a run indexes its per-class table
        assert tgt.shape == (4, 16)
        assert np.array_equal(tgt[0], tgt[2])
        assert tgt.tobytes() == targets_for(cb, labels).tobytes()
        with pytest.raises(ValueError):
            targets_for(cb, np.array([0, 4]))


def test_codebook_csv_round_trip(tmp_path):
    cb = derive_codebook(16, 10)
    path = tmp_path / "codes.csv"
    save_codebook_csv(cb, path)
    with open(path, newline="") as fh:
        rows = [[int(v) for v in row] for row in csv.reader(fh)]
    assert np.array_equal(np.array(rows), cb.codewords)
    # LF endings, no header row
    assert b"\r" not in path.read_bytes()
    assert len(rows) == 10
