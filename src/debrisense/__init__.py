"""Deterministic THz inter-satellite link simulator with debris sensing.

The package simulates debris-perturbed multi-ray MIMO channels, measures
QPSK link BER, extracts CSI-magnitude statistics and runs a two-stage
SVM pipeline for debris detection and classification.
"""

from .channel import (apply_rician_smallscale, assemble_subband,
                      steering_vector, subband_grid)
from .configio import (CampaignGrid, ChannelConfig, InteractionTable,
                       LinkConfig, LinkSimConfig, SceneSettings,
                       SimulationConfig, SvmSettings, default_config,
                       load_config, parse_config, reference_text)
from .errors import (ConfigError, ConvergenceWarning, DebrisenseError,
                     EqualizationError, GeometryError, GrazingGeometryError,
                     MaterialError, TrainingError)
from .experiments import (CampaignResult, ConditionSpec, MetricsSummary,
                          SampleRecord, balanced_partition, draw_interactions,
                          enumerate_conditions, evaluate_condition,
                          interaction_geometry, reproduce_table, run_campaign,
                          run_condition, table_config, trend_config)
from .linksim import (CsiEstimate, CsiMethod, compute_ber, estimate_csi,
                      qpsk_demodulate, qpsk_modulate, transmit, zf_equalize)
from .materials import (MaterialProperties, default_materials, load_materials,
                        parse_materials)
from .propagation import (Polarization, ScatterGeometry, diffracted_response,
                          diffraction_loss, doppler_factor, fspl_amplitude,
                          fresnel_coefficients, fresnel_kirchhoff_parameter,
                          los_response, reflected_response,
                          reflection_coefficient, roughness_coefficient,
                          scattered_response, scattering_coefficient,
                          wave_impedance)
from .scene import (DebrisClass, DebrisObject, DebrisScene, LinkGeometry,
                    Mechanism, PathGeometry, SceneConfig, diffraction_excess_path,
                    excess_delay, generate_scene, incidence_angle, path_lengths,
                    perpendicular_clearance, scene_to_text)
from .sensing import (FeatureVector, LabeledDataset, StandardizationParams,
                      SvmModel, apply_standardizer, extract_features,
                      fit_standardizer, load_model, model_from_json,
                      model_to_json, save_model, svm_train)

__version__ = "0.1.0"
