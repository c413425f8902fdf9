"""Simulator and analysis suite for wavelength-multiplexed
entanglement-based quantum key distribution.

Subpackages by capability: photon-pair source model (:mod:`.source`),
wavelength channel planning (:mod:`.channels`), detector chain
(:mod:`.detection`), coincidence counting (:mod:`.coincidence`),
key-rate analysis (:mod:`.keyrate`), Monte Carlo engine
(:mod:`.simulate`), frozen scenario calibration (:mod:`.calibration`),
and scenario runners plus the command line interface (:mod:`.runner`,
:mod:`.cli`).
"""

from .source import (PairStream, SourceConfig, band_fraction, sample_pair_stream,
                     spectral_density)
from .channels import (ChannelPlan, WavelengthChannel, build_grid_plan,
                       build_table1_plan, coherence_time, demux, energy_mismatches,
                       table1_labeling_report, table1_source_config)
from .detection import (Basis, DetectorConfig, Outcome, TagStream, detect,
                        merge_detectors, transmit)
from .coincidence import (CoincidenceWindow, CountsMatrix, Matches,
                          accidental_estimate, find_coincidences, tabulate)
from .keyrate import (AnalyticLinkModel, AnalyticRates, analytic_rates,
                      binary_entropy, optimize_pair_rate,
                      optimize_pair_rates, qber, qber_threshold, scaling_curve,
                      secure_key, visibility)
from .simulate import simulate_point

__version__ = "0.1.0"
