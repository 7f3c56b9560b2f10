import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmpinhole import container
from mmpinhole.errors import DataFileError, NumericError, ParameterError, ShapeError


def _rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex128)


class TestContainer:
    def test_model_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        B = _rand_complex(rng, (12, 7))
        path = tmp_path / "model.bin"
        container.write_container(path, "model", fingerprint="a" * 16,
                                  directionality="bidirectional",
                                  arrays={"B": B})
        payload = container.read_container(path)
        assert payload.kind == "model"
        assert payload.directionality == "bidirectional"
        assert payload.fingerprint == "a" * 16
        np.testing.assert_array_equal(payload.arrays["B"], B)
        assert path.stat().st_size == 72 + 16 * B.size

    def test_model_payload_is_complex128_le_after_its_digest(self, tmp_path):
        B = np.array([[1.0 + 2.0j, -3.0 + 0.5j]])
        path = tmp_path / "model.bin"
        container.write_container(path, "model", fingerprint="c" * 16,
                                  directionality="unidirectional", arrays={"B": B})
        raw = path.read_bytes()
        assert raw[8] == 3
        assert raw[40:72] == hashlib.sha256(raw[72:]).digest()
        np.testing.assert_array_equal(np.frombuffer(raw[72:], dtype="<f8"),
                                      [1.0, 2.0, -3.0, 0.5])

    def test_measurements_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        y = _rand_complex(rng, 33)
        path = tmp_path / "meas.bin"
        container.write_container(path, "measurements", fingerprint="b" * 16,
                                  directionality="unidirectional",
                                  arrays={"y": y, "n_points": 9})
        payload = container.read_container(path)
        assert payload.arrays["n_points"] == 9
        np.testing.assert_allclose(payload.arrays["y"], y, atol=1e-6)

    def test_payload_is_float32_interleaved_le(self, tmp_path):
        y = np.array([1.0 + 2.0j, -3.0 + 0.5j])
        path = tmp_path / "meas.bin"
        container.write_container(path, "measurements", fingerprint="d" * 16,
                                  directionality="bidirectional",
                                  arrays={"y": y, "n_points": 2})
        raw = path.read_bytes()
        assert raw[8] == 4
        assert raw[40:72] == hashlib.sha256(raw[72:]).digest()
        floats = np.frombuffer(raw[72:], dtype="<f4")
        np.testing.assert_array_equal(floats, [1.0, 2.0, -3.0, 0.5])
        assert path.stat().st_size == 72 + 8 * y.size

    def test_values_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        with pytest.raises(NumericError, match="float32"):
            container.write_container(path, "measurements", fingerprint="f" * 16,
                                      directionality="bidirectional",
                                      arrays={"y": np.array([1.0, -1e300j]), "n_points": 2})
        assert not path.exists()

    def test_model_beyond_float32_roundtrips_exactly(self, tmp_path):
        B = np.array([[1.0, 1e39 + 0j], [-1e300j, 5e-324 + 1e-310j]])
        path = tmp_path / "model.bin"
        container.write_container(path, "model", fingerprint="f" * 16,
                                  directionality="bidirectional", arrays={"B": B})
        np.testing.assert_array_equal(container.read_container(path).arrays["B"], B)

    @pytest.mark.parametrize("offset", [40, 71, 72, -1])
    def test_model_digest_checked(self, tmp_path, offset):
        path = tmp_path / "model.bin"
        container.write_container(path, "model", fingerprint="f" * 16,
                                  directionality="bidirectional",
                                  arrays={"B": np.ones((3, 4), dtype=complex)})
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 1
        path.write_bytes(bytes(raw))
        assert container.read_header(path) == ("model", "bidirectional", 3, 4, "f" * 16)
        with pytest.raises(DataFileError, match="sha256"):
            container.read_container(path)

    @pytest.mark.parametrize("offset", [40, 71, 72, -1])
    def test_measurements_digest_checked(self, tmp_path, offset):
        path = tmp_path / "meas.bin"
        container.write_container(path, "measurements", fingerprint="f" * 16,
                                  directionality="unidirectional",
                                  arrays={"y": np.ones(5, dtype=complex), "n_points": 4})
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 1
        path.write_bytes(bytes(raw))
        assert container.read_header(path) == ("measurements", "unidirectional", 5, 4,
                                               "f" * 16)
        with pytest.raises(DataFileError, match="sha256"):
            container.read_container(path)

    def test_complex64_model_kind_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        container.write_container(path, "measurements", fingerprint="f" * 16,
                                  directionality="bidirectional",
                                  arrays={"y": np.ones(12, dtype=complex), "n_points": 4})
        raw = bytearray(path.read_bytes())
        raw[8] = 1  # the retired complex64 model kind
        raw[12:16] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        for read in (container.read_header, container.read_container):
            with pytest.raises(ParameterError, match="kind"):
                read(path)

    def test_undigested_measurements_kind_rejected(self, tmp_path):
        path = tmp_path / "meas.bin"
        container.write_container(path, "measurements", fingerprint="f" * 16,
                                  directionality="bidirectional",
                                  arrays={"y": np.ones(3, dtype=complex), "n_points": 4})
        raw = path.read_bytes()
        # the retired layout: kind 2, the float32 pairs right after the header
        path.write_bytes(raw[:8] + bytes([2]) + raw[9:40] + raw[72:])
        for read in (container.read_header, container.read_container):
            with pytest.raises(ParameterError, match="kind"):
                read(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ParameterError):
            container.read_container(path)

    def test_bad_directionality_code_rejected(self, tmp_path):
        path = tmp_path / "meas.bin"
        container.write_container(path, "measurements", fingerprint="d" * 16,
                                  directionality="bidirectional",
                                  arrays={"y": np.ones(2, dtype=complex), "n_points": 2})
        raw = bytearray(path.read_bytes())
        raw[9] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ParameterError):
            container.read_container(path)

    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            container.write_container(tmp_path / "x.bin", "other",
                                      fingerprint="e" * 16,
                                      directionality="bidirectional", arrays={})

    def test_write_csv_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        container.write_csv(path, [
            ("sample", "re", "im", "label"),
            (0, 0.5, np.float64(-0.25), "a,b"),
            (np.int64(1), np.float32(0.1), None, 'say "hi"'),
            (2, 1e-300, float("inf"), None)])
        assert path.read_bytes() == (
            b'sample,re,im,label\r\n'
            b'0,0.5,-0.25,"a,b"\r\n'
            b'1,0.10000000149011612,,"say ""hi"""\r\n'
            b'2,1e-300,inf,\r\n')

    @pytest.mark.parametrize("kind, arrays", [
        ("model", {"B": np.ones((3, 4), dtype=complex)}),
        ("measurements", {"y": np.ones(5, dtype=complex), "n_points": 4}),
    ])
    @pytest.mark.parametrize("delta", [-8, 1])
    def test_payload_length_checked(self, tmp_path, kind, arrays, delta):
        path = tmp_path / "x.bin"
        container.write_container(path, kind, fingerprint="f" * 16,
                                  directionality="bidirectional", arrays=arrays)
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + b"\x00" * delta)
        with pytest.raises(ShapeError):
            container.read_container(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _complex_arrays(draw, shape):
    parts = [draw(hnp.arrays(np.float64, shape, elements=_FINITE)) for _ in range(2)]
    return parts[0] + 1j * parts[1]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["model", "measurements"]),
       directionality=st.sampled_from(["unidirectional", "bidirectional"]),
       fingerprint=st.text("0123456789abcdef", min_size=16, max_size=16))
def test_roundtrip_property(tmp_path_factory, data, kind, directionality, fingerprint):
    """Header fields survive; B is bit-exact, y within complex64 rounding."""
    path = tmp_path_factory.mktemp("roundtrip") / "x.bin"
    T = data.draw(st.integers(1, 12))
    N = data.draw(st.integers(1, 9))
    if kind == "model":
        arrays = {"B": data.draw(_complex_arrays((T, N)))}
    else:
        # values within float32 range: the writer rejects the rest
        small = st.floats(-1e38, 1e38)
        y = data.draw(hnp.arrays(np.float64, T, elements=small)) + 1j * data.draw(
            hnp.arrays(np.float64, T, elements=small))
        arrays = {"y": y, "n_points": N}
    container.write_container(path, kind, fingerprint=fingerprint,
                              directionality=directionality, arrays=arrays)
    assert container.read_header(path) == (kind, directionality, T, N, fingerprint)
    payload = container.read_container(path)
    assert (payload.kind, payload.directionality, payload.fingerprint) == (
        kind, directionality, fingerprint)
    if kind == "model":
        np.testing.assert_array_equal(payload.arrays["B"], arrays["B"])
    else:
        assert payload.arrays["n_points"] == N
        y, got = arrays["y"], payload.arrays["y"]
        for part in (np.real, np.imag):
            expected = part(y).astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(part(got), expected)
            assert np.all(np.abs(part(got) - part(y)) <= 2.0 ** -24 * np.abs(part(y))
                          + np.finfo(np.float32).smallest_subnormal)
