"""Desk-scale VQ-GAN-style autoencoder around the dual quantizer.

``layer_table`` writes the architecture once, as conv layer rows derived
from ``TrainConfig``; ``init_model`` draws each row's ``<name>.w``/``.b``
and ``encode``/``decode``/``discriminate`` walk the rows, one conv node
per row with bias and activation fused in and the row name as its ``op``.
Encoder: a stride-2 conv stack (one ``enc.down{i}`` per entry of
``enc_channels``) and a 3x3 projection to the latent width. Decoder: the
mirror image with transposed convs and a sigmoid output in [0,1].
Discriminator: a small patch-style conv stack emitting a logit grid.

The adversarial objective is hinge only. The generator's is L1
reconstruction + quantization terms + the adversarial term weighted by
``DISC_WEIGHT`` and by the ratio of the two gradient norms at the decoder's
final conv weight, clamped to ``LAMBDA_MAX``. Updates alternate
generator/discriminator with Adam (beta1=0.5, beta2=0.9); the
discriminator only trains from ``disc_start_step`` on, before which the
adversarial weight is zero.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import astuple, dataclass, fields
from typing import ClassVar

import numpy as np

from .autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    conv2d,
    conv_transpose2d,
    first_nonfinite,
    l1_loss,
    mul,
    no_grad,
    relu,
)
from .codebook import Codebook
from .dual_quantizer import Head, QuantizerState, quant_loss_total, quantize_dual, usage_columns
from .rng import component_rng
from .tensor_io import stored
from .transformer import TransformerParams

ADAM_BETAS = (0.5, 0.9)
ADAM_EPS = 1e-8
LAMBDA_DELTA = 1e-6
LAMBDA_MAX = 1e4                            # VQ-GAN's clamp on the adaptive weight
DISC_WEIGHT = 0.8                           # VQ-GAN's discriminator weight
TF_FF_DIM = 64                              # refiner feed-forward width


@dataclass
class TrainConfig:
    """Model + training knobs. Defaults are the desk-scale configuration;
    paper-scale values (256x256, 16x downsampling, 256+256 codebooks,
    6-layer transformer, lr 4.5e-6, disc start 10k) stay expressible
    through the same fields; the paper's weight 0.8 is ``DISC_WEIGHT``."""

    seed: int = 0
    steps: int = 1000
    batch: int = 8
    learning_rate: float = 1e-4
    disc_start_step: int = 500
    lambda_max: ClassVar[float] = LAMBDA_MAX   # not a field; the benchmark's step check reads it
    image_size: int = 32
    enc_channels: tuple = (24, 48)          # downsample factor = 2 ** len
    disc_channels: tuple = (16, 32)
    latent_channels: int = 8
    quantizer_mode: str = "dual"            # or "single"
    codebook_total: int = 64                # split total // 2 global, the rest local
    split_global: int = 4
    split_local: int = 4
    transformer_on: bool = True
    tf_layers: int = 2
    tf_heads: int = 2
    tf_zero_residual: bool = False

    def downsample_factor(self) -> int:
        return 2 ** len(self.enc_channels)

    def resolved_codebooks(self) -> tuple[int, int]:
        kg = self.codebook_total // 2
        return kg, self.codebook_total - kg

    def validate(self):
        for f_ in fields(self):
            v, want = getattr(self, f_.name), type(f_.default)
            if (not isinstance(v, (int, float) if want is float else want)
                    or isinstance(v, bool) != (want is bool)
                    or want is tuple and not all(type(c) is int for c in v)):
                raise ValueError(f"config field {f_.name} must be of type {want.__name__}, got {v!r}")
        for name in ("steps", "batch", "learning_rate", "image_size", "latent_channels", "codebook_total",
                     "tf_layers", "tf_heads"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive, got {getattr(self, name)}")
        if self.disc_start_step < 0:
            raise ValueError(f"disc_start_step must be non-negative, got {self.disc_start_step}")
        if self.quantizer_mode not in ("dual", "single"):
            raise ValueError(f"quantizer_mode must be 'dual' or 'single', got {self.quantizer_mode!r}")
        f = self.downsample_factor()
        if self.image_size % f != 0:
            raise ValueError(f"image_size {self.image_size} not divisible by downsample factor {f}")
        if self.quantizer_mode == "dual":
            if self.split_global + self.split_local != self.latent_channels:
                raise ValueError(
                    f"channel split {self.split_global}+{self.split_local} does not equal "
                    f"latent_channels {self.latent_channels}"
                )
            if self.split_global < 1 or self.split_local < 1:
                raise ValueError("both split widths must be at least 1")
            if self.codebook_total < 2:
                raise ValueError("both codebooks need at least one entry")
            if self.transformer_on and self.split_global % self.tf_heads != 0:
                raise ValueError(
                    f"split_global {self.split_global} not divisible by tf_heads {self.tf_heads}"
                )

    def to_dict(self) -> dict:
        out = {}
        for f_ in fields(self):
            v = getattr(self, f_.name)
            out[f_.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        kwargs = dict(d)
        for name in ("enc_channels", "disc_channels"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass
class StepReport:
    step: int
    l_rec: float
    l_quant_g: float
    l_quant_l: float
    lambda_: float
    d_loss: float
    perplexity_g: float
    perplexity_l: float
    active_g: float
    active_l: float

    CSV_COLUMNS = ("step", "l_rec", "l_quant_g", "l_quant_l", "lambda", "d_loss",
                   "perplexity_g", "perplexity_l", "active_g", "active_l")

    def csv_values(self):
        return astuple(self)


# one conv layer, padded by 1, with a 4x4 kernel at stride 2 and 3x3 at stride 1
Layer = namedtuple("Layer", "name transposed c_in c_out stride act")


def _stack(prefix: str, widths: list, transposed: bool, act: str) -> list[Layer]:
    """Stride-2 layers ``{prefix}{i}`` from widths[i] to widths[i + 1] channels."""
    return [Layer(f"{prefix}{i}", transposed, a, b, 2, act)
            for i, (a, b) in enumerate(zip(widths, widths[1:]))]


def layer_table(config: TrainConfig) -> dict[str, list[Layer]]:
    """Each network's conv layers in forward and parameter-draw order, keyed
    by the name of the seeded stream the network draws from."""
    enc = [3, *config.enc_channels]
    dec = list(reversed(config.enc_channels))
    disc = [3, *config.disc_channels]
    return {
        "enc": [*_stack("enc.down", enc, False, "relu"),
                Layer("enc.proj", False, enc[-1], config.latent_channels, 1, None)],
        "dec": [Layer("dec.in", False, config.latent_channels, dec[0], 1, "relu"),
                *_stack("dec.up", dec + dec[-1:], True, "relu"),
                Layer("dec.out", False, dec[-1], 3, 1, "sigmoid")],
        "disc": [*_stack("disc.down", disc, False, "leaky_relu"),
                 Layer("disc.out", False, disc[-1], 1, 1, None)],
    }


class ModelState:
    """Everything the training loop owns: parameters, quantizer, optimizer
    moments, and the step counter."""

    def __init__(self, config: TrainConfig):
        config.validate()
        self.config = config
        self.layers = layer_table(config)
        self.step = 0
        self.gen_params: dict[str, Tensor] = {}
        self.disc_params: dict[str, Tensor] = {}
        self.quantizer: QuantizerState | None = None
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t_gen = 0
        self.adam_t_disc = 0

    def all_params(self):
        yield from self.gen_params.items()
        yield from self.disc_params.items()

    def zero_grads(self):
        for _, p in self.all_params():
            p.grad = None


def init_model(config: TrainConfig, tensors: dict | None = None) -> ModelState:
    """Build a model from a checked ``TrainConfig``. Fresh, every network and
    quantizer component draws from its own seeded stream (``cb_global``,
    ``cb_local``, ``tf``), so switching the transformer off leaves the
    codebooks' draws unchanged; a conv layer gets a He-normal kernel, with
    fan-in from its input channels, and a zero bias; Adam moments are zero.
    Each parameter or moment (``adam_m.<key>``/``adam_v.<key>``) that
    ``tensors`` holds with its shape takes that array instead of a new one."""
    state = ModelState(config)
    seed = config.seed
    for net, layers in state.layers.items():
        rng = component_rng(seed, net)
        group = state.disc_params if net == "disc" else state.gen_params
        for layer in layers:
            k = 4 if layer.stride == 2 else 3
            io = (layer.c_in, layer.c_out) if layer.transposed else (layer.c_out, layer.c_in)
            std = np.sqrt(2.0 / (layer.c_in * k * k))
            for name, shape, make in (
                    (f"{layer.name}.w", (*io, k, k), lambda s: rng.normal(0.0, std, size=s)),
                    (f"{layer.name}.b", (1, layer.c_out, 1, 1), np.zeros)):
                arr = stored(tensors, name, shape)
                group[name] = Tensor(make(shape) if arr is None else arr, requires_grad=True, op=name)

    def codebook(name, k, dim):
        return Codebook(k, dim, rng=component_rng(seed, f"cb_{name}"),
                        entries=stored(tensors, f"{name}_cb", (k, dim)))

    if config.quantizer_mode == "dual":
        kg, kl = config.resolved_codebooks()
        tf_params = None
        if config.transformer_on:
            tf_tensors = {key[3:]: v for key, v in (tensors or {}).items() if key.startswith("tf.")}
            tf_params = TransformerParams(config.split_global, config.tf_layers, config.tf_heads,
                                          TF_FF_DIM, rng=component_rng(seed, "tf"),
                                          zero_residual=config.tf_zero_residual, tensors=tf_tensors)
        heads = [Head("global", codebook("global", kg, config.split_global), tf_params),
                 Head("local", codebook("local", kl, config.split_local))]
    else:
        heads = [Head("global", codebook("global", config.codebook_total, config.latent_channels))]
    state.quantizer = QuantizerState(heads)
    state.gen_params.update(state.quantizer.named_params())
    for name, p in state.all_params():
        for moments, prefix in ((state.adam_m, "adam_m."), (state.adam_v, "adam_v.")):
            m = stored(tensors, prefix + name, p.shape)
            moments[name] = np.zeros_like(p.data) if m is None else m
    return state


# -- forward passes ----------------------------------------------------------


def _walk(params: dict[str, Tensor], layers: list[Layer], h: Tensor) -> Tensor:
    for layer in layers:
        conv = conv_transpose2d if layer.transposed else conv2d
        h = conv(h, params[f"{layer.name}.w"], stride=layer.stride, pad=1,
                 bias=params[f"{layer.name}.b"], act=layer.act)
        h.op = layer.name
    return h


def encode(state: ModelState, x: Tensor) -> Tensor:
    f = state.config.downsample_factor()
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"encode: need (B,3,H,W), got {x.shape}")
    if x.shape[2] % f or x.shape[3] % f:
        raise ShapeError(f"encode: extents {x.shape[2]}x{x.shape[3]} not divisible by {f}")
    return _walk(state.gen_params, state.layers["enc"], x)


def decode(state: ModelState, z_q: Tensor) -> Tensor:
    cfg = state.config
    if z_q.shape[1] != cfg.latent_channels:
        raise ShapeError(f"decode: expected {cfg.latent_channels} channels, got {z_q.shape}")
    return _walk(state.gen_params, state.layers["dec"], z_q)


def discriminate(state: ModelState, x: Tensor) -> Tensor:
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"discriminate: need (B,3,H,W), got {x.shape}")
    return _walk(state.disc_params, state.layers["disc"], x)


# -- objectives ---------------------------------------------------------------


def adaptive_lambda(grad_rec_norm: float, grad_gan_norm: float) -> float:
    """Ratio of reconstruction to adversarial gradient norms, clamped to [0, LAMBDA_MAX]."""
    lam = grad_rec_norm / (grad_gan_norm + LAMBDA_DELTA)
    return float(min(max(lam, 0.0), LAMBDA_MAX))


def _gen_gan_term(d_logits_fake: Tensor) -> Tensor:
    return -d_logits_fake.mean()


@dataclass
class GenLosses:
    total: Tensor
    l_rec: Tensor


def generator_losses(x: Tensor, x_hat: Tensor, d_logits_fake: Tensor | None,
                     lam: float, quant_loss: Tensor) -> GenLosses:
    """Total generator objective: reconstruction + quantization + weighted
    adversarial term. With lam == 0 the result does not depend on the
    discriminator logits at all."""
    l_rec = l1_loss(x, x_hat)
    total = l_rec + quant_loss
    if d_logits_fake is not None and lam != 0.0:
        total = total + mul(_gen_gan_term(d_logits_fake), lam * DISC_WEIGHT)
    return GenLosses(total=total, l_rec=l_rec)


def discriminator_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    return 0.5 * (relu(1.0 - d_real).mean() + relu(1.0 + d_fake).mean())


# -- optimization --------------------------------------------------------------


def _adam_group(state: ModelState, params: dict[str, Tensor], t: int) -> int:
    cfg = state.config
    t += 1
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= b1
        v *= b2
        if p.grad is not None:
            m += (1.0 - b1) * p.grad
            v += (1.0 - b2) * (p.grad * p.grad)
        p.data -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return t


def _grad_norm(p: Tensor) -> float:
    if p.grad is None:
        return 0.0
    return float(np.sqrt((p.grad * p.grad).sum()))


def _check_finite(loss: Tensor, step: int, what: str):
    if not np.isfinite(loss.data).all():
        bad = first_nonfinite(loss)
        raise NonFiniteError(f"step {step}: non-finite {what}; first non-finite node is "
                             f"op={bad.op!r} (insertion id {bad._nid})")


def training_step(state: ModelState, batch: np.ndarray) -> StepReport:
    """One alternating update. Generator (encoder, decoder, codebooks,
    transformer) always steps; the discriminator joins from
    ``disc_start_step`` on, which is also when the adversarial term enters
    the generator objective."""
    cfg = state.config
    x = Tensor(batch)
    z = encode(state, x)
    z_q, results = quantize_dual(z, state.quantizer, update_usage=True)
    x_hat = decode(state, z_q)
    quant = quant_loss_total(results)

    use_gan = state.step >= cfg.disc_start_step
    lam = 0.0
    d_fake = None
    if use_gan:
        d_fake = discriminate(state, x_hat)
        last_w = state.gen_params[f"{state.layers['dec'][-1].name}.w"]
        # the probes only need the last layer's gradient
        state.zero_grads()
        backward(l1_loss(x, x_hat), wrt=[last_w])
        rec_norm = _grad_norm(last_w)
        state.zero_grads()
        backward(_gen_gan_term(d_fake), wrt=[last_w])
        gan_norm = _grad_norm(last_w)
        lam = adaptive_lambda(rec_norm, gan_norm)

    losses = generator_losses(x, x_hat, d_fake, lam, quant)
    _check_finite(losses.total, state.step, "loss")
    state.zero_grads()
    backward(losses.total, wrt=list(state.gen_params.values()))
    state.adam_t_gen = _adam_group(state, state.gen_params, state.adam_t_gen)

    d_loss_val = 0.0
    if use_gan:
        # d_fake is reused: restricting backward to the discriminator keeps
        # the generator graph behind it out of this update
        d_real = discriminate(state, x)
        d_loss = discriminator_loss(d_real, d_fake)
        _check_finite(d_loss, state.step, "discriminator loss")
        state.zero_grads()
        backward(d_loss, wrt=list(state.disc_params.values()))
        state.adam_t_disc = _adam_group(state, state.disc_params, state.adam_t_disc)
        d_loss_val = d_loss.item()

    state.step += 1

    # each head's quantization loss in head order; the single baseline's local one is 0
    lq_g, lq_l, *_ = [res.codebook_term.item() + res.commitment_term.item() for res in results] + [0.0]
    return StepReport(step=state.step, l_rec=losses.l_rec.item(), l_quant_g=lq_g, l_quant_l=lq_l,
                      lambda_=lam, d_loss=d_loss_val, **usage_columns(state.quantizer))


def reconstruct(state: ModelState, batch: np.ndarray,
                tables: list | None = None) -> tuple[np.ndarray, np.ndarray, list]:
    """Forward pass without usage updates or a backward graph, against the
    heads' ``tables`` when given; returns (x_hat, z_q, results)."""
    with no_grad():
        z_q, results = quantize_dual(encode(state, Tensor(batch)), state.quantizer,
                                     update_usage=False, tables=tables)
        return decode(state, z_q).data, z_q.data, results
