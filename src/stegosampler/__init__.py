"""Steganographic entropy coding over explicit per-pixel distributions."""

from .bitio import BitStream, BitString, frame_decode, frame_encode
from .coder import (
    CapacityExceeded,
    CoderState,
    NoParityMass,
    UndecodablePixel,
    embed_image,
    embed_step,
    extract_image,
    extract_step,
    lsb_embed,
    lsb_extract,
    quantize,
)
from .metrics import EmbedReport, aggregate, heatmaps, step_stats
from .models import (
    ContextModel,
    DegenerateModel,
    FixedModel,
    PixelDistribution,
    StreamModel,
    UniformModel,
    load_model,
    load_stream,
    save_model,
    save_stream,
    train_context_model,
    weights_from_floats,
)
from .pnm import ImageGrid, read_image, write_image

__all__ = [name for name in dir() if not name.startswith("_")]
