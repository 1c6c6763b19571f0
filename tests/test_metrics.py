import hashlib
import json
import math

import numpy as np
import pytest

from dualvq.codebook import Codebook, usage_stats
from dualvq.metrics import (
    compression_ratio,
    emit_utilization,
    frechet_gaussian,
    gaussian_stats,
    joint_basis,
    l1_metric,
    l2_metric,
    psnr,
    sanitize_for_json,
)


class TestPsnr:
    def test_twenty_db(self):
        x = np.zeros((3, 4, 4))
        x_hat = x + 0.1          # MSE 0.01
        assert abs(psnr(x, x_hat) - 20.0) < 1e-9

    def test_identical_gives_inf(self):
        x = np.random.default_rng(80).uniform(size=(3, 8, 8))
        assert psnr(x, x.copy()) == float("inf")
        assert sanitize_for_json({"psnr": psnr(x, x.copy())}) == {"psnr": "inf"}

    def test_quarter_mse(self):
        x = np.zeros((3, 2, 2))
        assert abs(psnr(x, x + 0.5) - 6.020599913279624) < 1e-9

    def test_monotone_in_mse(self):
        x = np.zeros((3, 4, 4))
        values = [psnr(x, x + eps) for eps in (0.01, 0.05, 0.1, 0.3, 0.7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((3, 2, 2)), np.zeros((3, 2, 3)))


class TestL1L2:
    def test_identical(self):
        x = np.random.default_rng(81).uniform(size=(3, 5, 5))
        assert l1_metric(x, x.copy()) == 0.0
        assert l2_metric(x, x.copy()) == 0.0

    def test_constant_offset(self):
        x = np.full((3, 4, 4), 0.4)
        assert abs(l1_metric(x, x + 0.1) - 0.1) < 1e-12
        assert abs(l2_metric(x, x + 0.1) - 0.01) < 1e-12

    def test_loop_oracle(self):
        rng = np.random.default_rng(82)
        x = rng.uniform(size=(2, 3, 3))
        y = rng.uniform(size=(2, 3, 3))
        acc1 = acc2 = 0.0
        for a, b in zip(x.reshape(-1), y.reshape(-1)):
            acc1 += abs(a - b)
            acc2 += (a - b) ** 2
        assert abs(l1_metric(x, y) - acc1 / x.size) < 1e-12
        assert abs(l2_metric(x, y) - acc2 / x.size) < 1e-12


class TestFrechet:
    def test_identical_zero(self):
        rng = np.random.default_rng(83)
        mu = rng.normal(size=4)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T
        assert frechet_gaussian(mu, cov, mu, cov) < 1e-9

    def test_mean_shift_only(self):
        assert abs(frechet_gaussian([0.0], [[1.0]], [3.0], [[1.0]]) - 9.0) < 1e-9

    def test_variance_term(self):
        assert abs(frechet_gaussian([0.0], [[1.0]], [0.0], [[4.0]]) - 1.0) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(84)
        mu1, mu2 = rng.normal(size=(2, 3))
        a, b = rng.normal(size=(2, 3, 3))
        c1, c2 = a @ a.T, b @ b.T
        d12 = frechet_gaussian(mu1, c1, mu2, c2)
        d21 = frechet_gaussian(mu2, c2, mu1, c1)
        assert abs(d12 - d21) < 1e-9

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(85)
        mu = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T
        assert frechet_gaussian(mu, cov, mu + 0.05, cov) > 1e-4
        assert frechet_gaussian(mu, cov, mu, cov * 1.2) > 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frechet_gaussian([0.0, 0.0], np.eye(2), [0.0], np.eye(1))

    def test_rank_deficient_ok(self):
        feats = np.random.default_rng(86).normal(size=(4, 10))  # fewer rows than dims
        mu, cov = gaussian_stats(feats)
        val = frechet_gaussian(mu, cov, mu, cov)
        assert 0.0 <= val < 1e-9


def svd_frechet(f1, f2):
    """Reference: with A the centred (n, d) features, C = Aᵀ A / (n - 1), so
    tr((C1 C2)^1/2) is the sum of the singular values of A1 A2ᵀ / (n - 1)."""
    a1, a2 = f1 - f1.mean(axis=0), f2 - f2.mean(axis=0)
    cross = np.linalg.svd(a1 @ a2.T, compute_uv=False).sum()
    mean_d2 = ((f1.mean(axis=0) - f2.mean(axis=0)) ** 2).sum()
    return mean_d2 + ((a1 ** 2).sum() + (a2 ** 2).sum() - 2.0 * cross) / (f1.shape[0] - 1)


def projected_frechet(f1, f2):
    q = joint_basis(f1, f2)
    return frechet_gaussian(*gaussian_stats(f1 @ q), *gaussian_stats(f2 @ q))


class TestJointBasis:
    @pytest.mark.parametrize("n, d", [(300, 64), (25, 8), (25, 512), (4, 10)])
    @pytest.mark.parametrize("noise", [None, 0.5])
    def test_projected_matches_svd_reference(self, n, d, noise):
        # noise None: two unrelated sets; 0.5: a set and a perturbed copy, as
        # latents and their reconstructions' latents are
        rng = np.random.default_rng(n * d)
        f1 = rng.normal(size=(n, d))
        f2 = rng.normal(size=(n, d)) if noise is None else f1 + noise * rng.normal(size=(n, d))
        q = joint_basis(f1, f2)
        assert q.shape == (d, min(d, 2 * n + 1))
        assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
        ref = svd_frechet(f1, f2)
        assert abs(projected_frechet(f1, f2) - ref) <= 1e-7 * ref

    @pytest.mark.parametrize("n, d", [(300, 64), (25, 8)])
    def test_full_rank_matches_unprojected(self, n, d):
        rng = np.random.default_rng(n + d)
        f1 = rng.normal(size=(n, d))
        f2 = 1.3 * rng.normal(size=(n, d)) + 0.2
        plain = frechet_gaussian(*gaussian_stats(f1), *gaussian_stats(f2))
        assert abs(projected_frechet(f1, f2) - plain) <= 1e-12 * plain


class TestUtilization:
    def make_codebooks(self):
        cb_g = Codebook(4, 2, entries=np.zeros((4, 2)))
        cb_g.record(np.array([0, 0, 1, 2]))
        cb_l = Codebook(8, 2, entries=np.zeros((8, 2)))
        cb_l.record(np.array([5, 5, 5]))
        return {"global": cb_g, "local": cb_l}

    def emit(self, tmp_path, codebooks=None):
        jp, cp = emit_utilization(codebooks or self.make_codebooks(), 42, "abc123",
                                  str(tmp_path / "util"))
        return json.load(open(jp)), open(cp).read()

    def test_roundtrip(self, tmp_path):
        codebooks = self.make_codebooks()
        blob, _ = self.emit(tmp_path, codebooks)
        assert (blob["step"], blob["config_hash"]) == (42, "abc123")
        assert [s["name"] for s in blob["series"]] == ["global", "local"]
        for s, cb in zip(blob["series"], codebooks.values()):
            assert list(s) == ["name", "n_entries", "total_assignments", "perplexity",
                               "active_fraction", "counts"]
            assert s["counts"] == cb.counts.tolist()
            assert s["total_assignments"] == int(cb.counts.sum())
            assert (s["perplexity"], s["active_fraction"]) == usage_stats(cb)

    def test_bytes_pinned(self, tmp_path):
        emit_utilization(self.make_codebooks(), 42, "abc123", str(tmp_path / "util"))
        digests = {ext: hashlib.sha256((tmp_path / f"util.{ext}").read_bytes()).hexdigest()
                   for ext in ("json", "csv")}
        assert digests == {
            "json": "b3fb0cf1095a6e6da2d6be6081f976f2214779bf22017c075a6f8c1f35e0dfd8",
            "csv": "7670404843cedcf1fb9304d3f5520af289ac34083bafa83aa0ed558a89f7f7e8",
        }

    def test_csv_layout(self, tmp_path):
        _, csv = self.emit(tmp_path)
        lines = csv.strip().split("\n")
        assert lines[0] == "codebook,entry_id,count"
        assert lines[1] == "global,0,2"
        assert len(lines) == 1 + 4 + 8

    def test_two_series_independent_k(self, tmp_path):
        blob, _ = self.emit(tmp_path)
        ks = {s["name"]: s["n_entries"] for s in blob["series"]}
        assert ks == {"global": 4, "local": 8}

    def test_collapsed_fraction(self, tmp_path):
        cb = Codebook(32, 2, entries=np.zeros((32, 2)))
        cb.record(np.zeros(100, dtype=np.int64))
        blob, _ = self.emit(tmp_path, {"global": cb})
        assert blob["series"][0]["active_fraction"] == 0.03125


class TestCompression:
    def test_paper_ratio(self):
        assert compression_ratio((256, 256, 3), (16, 16)) == 768.0

    def test_desk_ratio(self):
        assert compression_ratio((32, 32, 3), (8, 8)) == 48.0
