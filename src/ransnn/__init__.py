"""Spiking-network classifier with fixed random LIF hidden layers and a
trained spike-count readout, plus a surrogate-gradient BPTT baseline and a
benchmark harness."""

from .encoding import encode_batch, encode_sample
from .harness import (ConfigError, ExperimentConfig, MethodComparison, RunRecord,
                      SweepSpec, compare_methods, emit_metrics, run_experiment,
                      run_sweep, summarize_sweep)
from .idx import (DatasetError, IdxError, IdxTensor, LabeledDataset, load_dataset,
                  make_batches, parse_idx, read_idx)
from .network import (LifParams, NetworkTopology, Normal, Uniform, WeightDistribution,
                      fan_in_uniform, init_weights, one_blas_thread, simulate_forward)
from .numerics import (ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM, AdamConfig, AdamState, Rng,
                       adam_step, softmax)
from .readout import (FeatureCache, IterationMetrics, ReadoutModel, evaluate,
                      extract_features, readout_loss_grad, train_readout)
from .sg import (BpttTape, SgModel, bptt_backward, evaluate_sg, init_sg_model,
                 surrogate_grad, train_sg)

__version__ = "0.1.0"
