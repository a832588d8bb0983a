"""Chunked evaluation: a report does not depend on how the sample points
are split into chunks, a fault at some points of a chunk still fails the
run, and a NaN residual is a numeric fault, never a pass."""

import json
import platform
import resource

import numpy as np
import pytest

from accrgeo import accr, cli
from accrgeo.examples import sample_points
from report_matrix import deviation, run

REL = 1e-12


def one_point_chunks(monkeypatch):
    monkeypatch.setattr(accr, "CHUNK_BYTES", 1)


@pytest.mark.parametrize("order, sizes", [(1, [809, 201, 78, 38]),
                                          (2, [383, 60, 17, 6])])
def test_chunk_sizes_at_n_1_to_4(order, sizes):
    # the most points one chunk holds; one point more makes two halves
    for n, size in zip((1, 2, 3, 4), sizes):
        points = sample_points(2 * n + 1, size + 1)
        assert [len(c) for c in accr.chunks(points[:size], order)] == [size]
        assert [len(c) for c in accr.chunks(points, order)] == [
            (size + 2) // 2, (size + 1) // 2]


@pytest.mark.parametrize("n, order, samples, sizes", [
    (2, 2, 16, [16]), (3, 2, 16, [16]),        # soliton-k3's cases
    (1, 1, 32, [32]), (3, 1, 32, [32]),        # sweep-k1's cases
    (4, 1, 70, [35, 35]),                      # the report matrix's slice
    (3, 1, 1, [1])])
def test_chunks_split_the_points_evenly(n, order, samples, sizes):
    points = sample_points(2 * n + 1, samples)
    parts = accr.chunks(points, order)
    assert [len(c) for c in parts] == sizes
    assert np.array_equal(np.concatenate(parts), points)


CASES = [[cmd, "--example", model, "--n", "2", "--samples", "12",
          "--seed", "5", *extra]
         for cmd, model, extra in (
             ("check", "random", []), ("classify", "hypersurface-f5", []),
             ("lee", "random", []), ("torse", "hypersurface-f5", []),
             ("torse", "random", []),
             ("transform", "random", ["--preset", "soliton"]),
             ("soliton", "hypersurface-f5", ["--preset", "negative-dv"]),
             # sigma given, tau varying across chunks
             ("soliton", "random", ["--preset", "soliton", "--sigma", "0.5"]))]


@pytest.mark.parametrize("argv", CASES, ids=lambda a: f"{a[0]}-{a[2]}")
def test_report_does_not_depend_on_the_chunking(monkeypatch, argv):
    code, text, _ = run(argv)
    one_point_chunks(monkeypatch)
    code1, text1, _ = run(argv)
    assert code1 == code and code in (0, 1)
    dev, path = deviation(json.loads(text), json.loads(text1))
    assert dev <= REL, path


def test_samples_keep_point_order_across_chunks(monkeypatch):
    # 70 order-1 points at most 32 a chunk: 24 + 23 + 23
    argv = ["lee", "--example", "hypersurface-f5", "--n", "2",
            "--samples", "70", "--seed", "11"]
    points = sample_points(5, 70, seed=11)
    whole = json.loads(run(argv)[1])
    assert len(accr.chunks(points, 1)) == 1
    monkeypatch.setattr(accr, "CHUNK_BYTES", 32 * accr.point_bytes(5, 1))
    assert [len(c) for c in accr.chunks(points, 1)] == [24, 23, 23]
    code, text, _ = run(argv)
    split = json.loads(text)
    one_point_chunks(monkeypatch)
    single = json.loads(run(argv)[1])
    assert code == 0
    assert [s["point"] for s in split["values"]["samples"]] == \
        points.tolist()
    for rep in (split, single):
        dev, path = deviation(whole, rep)
        assert dev <= REL, path


@pytest.mark.parametrize("sign", ["+", "-"])
def test_torse_field_vertical_at_some_chunks_only(monkeypatch, sign):
    # the field is the Reeb field where x1 < 1 (sign +) or x1 > 1 (sign -)
    # and leaves it elsewhere; in one-point chunks the first chunk is not
    # vertical (sign +) or is (sign -), and the vertical-case identities
    # must drop out of the report either way, as they do in one chunk
    argv = ["torse", "--example", "hypersurface-f5", "--n", "1",
            "--samples", "12", "--seed", "5",
            "--field", f"x1 - 1 {sign} sqrt((x1 - 1)^2); 0; 1"]
    x1 = sample_points(3, 12, seed=5)[:, 0]
    assert x1[0] > 1.0 > x1[1]
    code, text, _ = run(argv)
    one_point_chunks(monkeypatch)
    code1, text1, _ = run(argv)
    assert code1 == code
    whole = json.loads(text)
    assert whole["values"]["is_vertical"] is False
    assert [c["name"] for c in whole["checks"]] == ["torse_fit",
                                                    "dk_identity"]
    dev, path = deviation(whole, json.loads(text1))
    assert dev <= REL, path


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="tunes glibc's malloc only")
def test_order3_chunks_reuse_their_memory():
    # one chunk of 16 points at n = 3 (two of 8 under a 2 MiB budget): with
    # glibc's adaptive thresholds every chunk faulted its working set in
    # anew (about 600 pages a point)
    argv = ["soliton", "--example", "hypersurface-f5", "--n", "3",
            "--preset", "soliton", "--samples", "16"]
    run(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(argv)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


@pytest.mark.parametrize("one_point", [False, True])
def test_domain_fault_at_some_points_of_a_chunk_exits_3(monkeypatch,
                                                        one_point):
    # ln(x1 - 1) is defined only at the sample points with x1 > 1
    points = sample_points(3, 32, seed=0)
    assert 0 < np.count_nonzero(points[:, 0] < 1.0) < 32
    if one_point:
        one_point_chunks(monkeypatch)
    code, text, err = run(["transform", "--example", "flat-f0", "--n", "1",
                           "--samples", "32", "--u", "ln(x1 - 1)", "--v",
                           "0", "--w", "0"])
    assert code == 3 and text == ""
    assert "ln of a nonpositive value at ln((x1 - 1))" in err


def test_worst_of_names_the_first_nan_sample():
    # max(prev, new) kept the previous value against a NaN, so a residual
    # NaN at every point read as 0.0
    with pytest.raises(FloatingPointError,
                       match="residual 'a' is NaN at sample 0"):
        accr.worst_of({"b": [0.0, 1.0], "a": [np.nan, 1e-12]})
    assert accr.worst_of({"a": [1e-12, 3e-12]}) == {"a": 3e-12}


@pytest.mark.parametrize("nan_at", [None, 2])
def test_nan_residual_exits_3_naming_check_and_sample(monkeypatch, nan_at):
    points = sample_points(3, 4, seed=1)

    def f_symmetry(ev):
        at = ev.S.point[..., 0]
        bad = at == at if nan_at is None else at == points[nan_at, 0]
        return np.where(bad, np.nan, 0.0)

    monkeypatch.setattr(cli, "f_prop_residual", f_symmetry)
    code, text, err = run(["check", "--example", "flat-f0", "--n", "1",
                           "--samples", "4", "--seed", "1"])
    assert code == 3 and text == ""
    assert f"residual 'f_symmetry' is NaN at sample {nan_at or 0}" in err
