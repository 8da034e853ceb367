"""Gradient-checked tests for the GNN layers and models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.gnn.layers import GATLayer, GCNLayer, SAGEMeanLayer
from repro.gnn.models import GCN, GraphSAGE, SampledGNN
from repro.gnn.ops import softmax_cross_entropy

EPS = 1e-5
TOL = 1e-4


def numeric_grad(loss_fn, array, index):
    orig = array[index]
    array[index] = orig + EPS
    lp = loss_fn()
    array[index] = orig - EPS
    lm = loss_fn()
    array[index] = orig
    return (lp - lm) / (2 * EPS)


def promote_to_float64(*layers):
    """Run gradient checks in float64 — float32 parameter quantization
    would otherwise dominate the finite-difference error."""
    for layer in layers:
        for name in layer.params:
            layer.params[name] = layer.params[name].astype(np.float64)
        layer.zero_grads()


@pytest.mark.parametrize("conv_cls", [SAGEMeanLayer, GCNLayer, GATLayer])
class TestConvLayers:
    def test_forward_shapes(self, conv_cls, nprng):
        layer = conv_cls(4, 6, nprng)
        out = layer.forward(np.zeros((5, 4), np.float32), np.zeros((5, 3, 4), np.float32))
        assert out.shape == (5, 6)

    def test_shape_validation(self, conv_cls, nprng):
        layer = conv_cls(4, 6, nprng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 4)), np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 4)), np.zeros((6, 3, 4)))

    def test_gradients(self, conv_cls, nprng):
        layer = conv_cls(3, 4, nprng, activation=True)
        promote_to_float64(layer)
        hs = nprng.normal(size=(5, 3))
        hn = nprng.normal(size=(5, 6, 3))
        labels = np.array([0, 1, 2, 3, 0])

        def loss_fn():
            out = layer.forward(hs, hn)
            loss, _ = softmax_cross_entropy(out, labels)
            layer._cache.pop()
            return loss

        layer.zero_grads()
        out = layer.forward(hs, hn)
        loss, grad_out = softmax_cross_entropy(out, labels)
        gs, gn = layer.backward(grad_out)
        for name in layer.params:
            p = layer.params[name]
            idx = (0,) if p.ndim == 1 else (0, 1)
            assert layer.grads[name][idx] == pytest.approx(
                numeric_grad(loss_fn, p, idx), abs=TOL
            )
        assert gs[1, 2] == pytest.approx(numeric_grad(loss_fn, hs, (1, 2)), abs=TOL)
        assert gn[3, 4, 1] == pytest.approx(
            numeric_grad(loss_fn, hn, (3, 4, 1)), abs=TOL
        )


class TestSampledGNN:
    def _feats(self, nprng, batch, fanouts, dim):
        sizes = [batch]
        for f in fanouts:
            sizes.append(sizes[-1] * f)
        return [nprng.normal(size=(n, dim)) for n in sizes]

    def test_forward_shapes(self, nprng):
        model = GraphSAGE(8, 16, 3, num_layers=2, rng=nprng)
        feats = self._feats(nprng, 4, [3, 2], 8)
        out = model.forward(feats, [3, 2])
        assert out.shape == (4, 3)

    def test_shape_validation(self, nprng):
        model = GraphSAGE(8, 16, 3, num_layers=2, rng=nprng)
        feats = self._feats(nprng, 4, [3, 2], 8)
        with pytest.raises(ShapeError):
            model.forward(feats[:2], [3, 2])
        with pytest.raises(ShapeError):
            model.forward(feats, [3])
        bad = list(feats)
        bad[1] = bad[1][:-1]
        with pytest.raises(ShapeError):
            model.forward(bad, [3, 2])

    def test_depth_validation(self, nprng):
        with pytest.raises(ConfigurationError):
            SampledGNN(4, 8, 2, num_layers=0, rng=nprng)

    @pytest.mark.parametrize("model_cls", [GraphSAGE, GCN])
    def test_end_to_end_gradients(self, model_cls, nprng):
        """Full pyramid backward (shared layer applied at two depths)
        matches numeric gradients."""
        model = model_cls(3, 5, 2, num_layers=2, rng=nprng)
        promote_to_float64(*model.layers)
        fanouts = [2, 3]
        feats = self._feats(nprng, 3, fanouts, 3)
        labels = np.array([0, 1, 0])

        def loss_fn():
            out = model.forward(feats, fanouts)
            loss, _ = softmax_cross_entropy(out, labels)
            for layer in model.layers:
                layer._cache.clear()
            return loss

        model.zero_grads()
        out = model.forward(feats, fanouts)
        loss, grad = softmax_cross_entropy(out, labels)
        model.backward(grad)
        checked = 0
        for name, param, grad_arr in model.parameters():
            idx = (0,) if param.ndim == 1 else (0, 0)
            num = numeric_grad(loss_fn, param, idx)
            assert grad_arr[idx] == pytest.approx(num, abs=TOL), name
            checked += 1
        assert checked >= 4

    def test_parameter_count(self, nprng):
        model = GraphSAGE(4, 8, 2, num_layers=2, rng=nprng)
        # layer0: 2*(4*8) + 8; layer1: 2*(8*2) + 2
        assert model.num_parameters() == (2 * 32 + 8) + (2 * 16 + 2)
