import numpy as np
import pytest

from mmpinhole import container
from mmpinhole.errors import NumericError, ParameterError, ShapeError


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
        np.testing.assert_allclose(payload.arrays["B"], B, atol=1e-6)

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
        floats = np.frombuffer(raw[40:], dtype="<f4")
        np.testing.assert_array_equal(floats, [1.0, 2.0, -3.0, 0.5])

    @pytest.mark.parametrize("kind, arrays", [
        ("model", {"B": np.array([[1.0, 1e39 + 0j]])}),
        ("measurements", {"y": np.array([1.0, -1e300j]), "n_points": 2}),
    ])
    def test_values_beyond_float32_rejected(self, tmp_path, kind, arrays):
        path = tmp_path / "x.bin"
        with pytest.raises(NumericError, match="float32"):
            container.write_container(path, kind, fingerprint="f" * 16,
                                      directionality="bidirectional", arrays=arrays)
        assert not path.exists()

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
