package catalog

// This file is the curated content of the domain-specific database: the
// procedure, message, gauge, resource and traffic tables that expand into
// the >3000-metric catalog. The tables model the structure of a commercial
// 5G-core vNF provider's counter documentation.

// ProcedureDef describes one 3GPP procedure whose lifecycle the vNF
// instruments with a family of counters.
type ProcedureDef struct {
	// NF and Service locate the procedure (e.g. amf/cc).
	NF, Service string
	// Slug is the fragment used in metric names, e.g. "n1_auth". Some
	// slugs spell the full phrase, some abbreviate it, and some use
	// vendor-internal jargon — exactly the mix that makes compositional
	// name guessing unreliable (the paper's LCS NI-LR example).
	Slug string
	// Phrase is the human phrase used in documentation sentences.
	Phrase string
	// Questions are phrasings operators use when asking about the
	// procedure (first is canonical). These drive benchmark generation.
	Questions []string
	// Message is the principal protocol message of the procedure.
	Message string
	// Spec cites where the message is defined.
	Spec string
}

// Prefix returns the metric-name prefix of the procedure's service.
func (p ProcedureDef) Prefix() string { return p.NF + p.Service }

// MetricName returns the full metric name of one variant counter.
func (p ProcedureDef) MetricName(variant string) string {
	return p.Prefix() + "_" + p.Slug + "_" + variant
}

// CounterVariants are the per-procedure lifecycle counters, in export
// order. "request" counts protocol messages sent; "attempt" counts
// procedure initiations.
var CounterVariants = []string{
	"request", "attempt", "success", "failure", "timeout", "reject",
	"abort", "retransmission",
}

// FailureCauses are the per-cause failure breakdown counters.
var FailureCauses = []string{
	"congestion", "resource_unavailable", "invalid_request",
	"context_not_found", "timer_expiry", "authentication_failure",
	"protocol_error", "peer_unreachable", "internal_error", "unspecified",
}

// RejectCauses are the per-cause rejection breakdown counters.
var RejectCauses = []string{
	"congestion", "not_authorized", "invalid_state", "unsupported",
	"slice_unavailable", "unspecified",
}

// procedures is the full procedure table.
var procedures = []ProcedureDef{
	// ---- AMF call control (cc) -----------------------------------------
	{NF: "amf", Service: "cc", Slug: "initial_registration", Phrase: "initial registration",
		Questions: []string{"initial registration", "initial registrations", "UE initial registration"},
		Message:   "REGISTRATION REQUEST", Spec: "section 8.2.6 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "mobility_registration_update", Phrase: "mobility registration update",
		Questions: []string{"mobility registration update", "mobility registration updates"},
		Message:   "REGISTRATION REQUEST", Spec: "section 8.2.6 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "periodic_registration_update", Phrase: "periodic registration update",
		Questions: []string{"periodic registration update", "periodic registration updates"},
		Message:   "REGISTRATION REQUEST", Spec: "section 8.2.6 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "emergency_registration", Phrase: "emergency registration",
		Questions: []string{"emergency registration", "emergency registrations"},
		Message:   "REGISTRATION REQUEST", Spec: "section 8.2.6 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "ue_deregistration", Phrase: "UE-initiated deregistration",
		Questions: []string{"UE initiated deregistration", "UE deregistration", "deregistration initiated by the UE"},
		Message:   "DEREGISTRATION REQUEST", Spec: "section 8.2.12 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "nw_deregistration", Phrase: "network-initiated deregistration",
		Questions: []string{"network initiated deregistration", "network deregistration"},
		Message:   "DEREGISTRATION REQUEST", Spec: "section 8.2.12 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "service_request", Phrase: "service request",
		Questions: []string{"service request", "service requests", "UE service request"},
		Message:   "SERVICE REQUEST", Spec: "section 8.2.16 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "n1_auth", Phrase: "authentication",
		Questions: []string{"authentication", "UE authentication", "NAS authentication"},
		Message:   "AUTHENTICATION REQUEST", Spec: "section 8.2.1 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "smc", Phrase: "security mode control",
		Questions: []string{"security mode control", "security mode command", "SMC"},
		Message:   "SECURITY MODE COMMAND", Spec: "section 8.2.25 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "identity", Phrase: "identification",
		Questions: []string{"identification", "identity request", "UE identification"},
		Message:   "IDENTITY REQUEST", Spec: "section 8.2.21 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "config_update", Phrase: "UE configuration update",
		Questions: []string{"UE configuration update", "configuration update"},
		Message:   "CONFIGURATION UPDATE COMMAND", Spec: "section 8.2.19 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "ul_nas_transport", Phrase: "uplink NAS transport",
		Questions: []string{"uplink NAS transport", "uplink NAS messages"},
		Message:   "UL NAS TRANSPORT", Spec: "section 8.2.10 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "dl_nas_transport", Phrase: "downlink NAS transport",
		Questions: []string{"downlink NAS transport", "downlink NAS messages"},
		Message:   "DL NAS TRANSPORT", Spec: "section 8.2.11 of 3GPP TS 24.501"},
	{NF: "amf", Service: "cc", Slug: "lcs_network_induced_location_request", Phrase: "LCS network induced location request",
		Questions: []string{"LCS NI-LR", "NI-LR", "network induced location request"},
		Message:   "LOCATION SERVICES MESSAGE", Spec: "section 6.7 of 3GPP TS 23.273"},
	{NF: "amf", Service: "cc", Slug: "lcs_mobile_originated_location_request", Phrase: "LCS mobile originated location request",
		Questions: []string{"LCS MO-LR", "MO-LR", "mobile originated location request"},
		Message:   "LOCATION SERVICES MESSAGE", Spec: "section 6.2 of 3GPP TS 23.273"},
	{NF: "amf", Service: "cc", Slug: "lcs_mobile_terminated_location_request", Phrase: "LCS mobile terminated location request",
		Questions: []string{"LCS MT-LR", "MT-LR", "mobile terminated location request"},
		Message:   "LOCATION SERVICES MESSAGE", Spec: "section 6.1 of 3GPP TS 23.273"},

	// ---- AMF mobility management (mm) ----------------------------------
	{NF: "amf", Service: "mm", Slug: "paging", Phrase: "paging",
		Questions: []string{"paging", "paging procedures", "UE paging"},
		Message:   "PAGING", Spec: "section 9.2.4.1 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ue_ctx_setup", Phrase: "initial UE context setup",
		Questions: []string{"initial context setup", "UE context setup"},
		Message:   "INITIAL CONTEXT SETUP REQUEST", Spec: "section 9.2.2.1 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ue_ctx_release", Phrase: "UE context release",
		Questions: []string{"UE context release", "context release"},
		Message:   "UE CONTEXT RELEASE COMMAND", Spec: "section 9.2.2.5 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ue_ctx_modification", Phrase: "UE context modification",
		Questions: []string{"UE context modification", "context modification"},
		Message:   "UE CONTEXT MODIFICATION REQUEST", Spec: "section 9.2.2.7 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ho_preparation", Phrase: "handover preparation",
		Questions: []string{"handover preparation", "handover preparations"},
		Message:   "HANDOVER REQUIRED", Spec: "section 9.2.3.1 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ho_resource_allocation", Phrase: "handover resource allocation",
		Questions: []string{"handover resource allocation", "handover resource allocations"},
		Message:   "HANDOVER REQUEST", Spec: "section 9.2.3.4 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ho_notification", Phrase: "handover notification",
		Questions: []string{"handover notification", "handover notifications"},
		Message:   "HANDOVER NOTIFY", Spec: "section 9.2.3.7 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "path_switch", Phrase: "Xn handover path switch",
		Questions: []string{"path switch", "Xn handover", "Xn path switch"},
		Message:   "PATH SWITCH REQUEST", Spec: "section 9.2.3.10 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ng_setup", Phrase: "NG setup",
		Questions: []string{"NG setup", "NG interface setup", "gNodeB NG setup"},
		Message:   "NG SETUP REQUEST", Spec: "section 9.2.6.1 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "ran_config_update", Phrase: "RAN configuration update",
		Questions: []string{"RAN configuration update", "RAN config update"},
		Message:   "RAN CONFIGURATION UPDATE", Spec: "section 9.2.6.4 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "pdu_resource_setup", Phrase: "PDU session resource setup",
		Questions: []string{"PDU session resource setup", "PDU resource setup"},
		Message:   "PDU SESSION RESOURCE SETUP REQUEST", Spec: "section 9.2.1.1 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "pdu_resource_release", Phrase: "PDU session resource release",
		Questions: []string{"PDU session resource release", "PDU resource release"},
		Message:   "PDU SESSION RESOURCE RELEASE COMMAND", Spec: "section 9.2.1.5 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "pdu_resource_modify", Phrase: "PDU session resource modification",
		Questions: []string{"PDU session resource modification", "PDU resource modify"},
		Message:   "PDU SESSION RESOURCE MODIFY REQUEST", Spec: "section 9.2.1.3 of 3GPP TS 38.413"},
	{NF: "amf", Service: "mm", Slug: "nas_non_delivery", Phrase: "NAS non-delivery indication",
		Questions: []string{"NAS non-delivery", "NAS non delivery indications"},
		Message:   "NAS NON DELIVERY INDICATION", Spec: "section 9.2.5.3 of 3GPP TS 38.413"},

	// ---- AMF event exposure / SBI (ee) ---------------------------------
	{NF: "amf", Service: "ee", Slug: "event_subscribe", Phrase: "event exposure subscription",
		Questions: []string{"event exposure subscription", "event subscriptions at the AMF"},
		Message:   "Namf_EventExposure_Subscribe", Spec: "section 5.3 of 3GPP TS 29.518"},
	{NF: "amf", Service: "ee", Slug: "event_unsubscribe", Phrase: "event exposure unsubscription",
		Questions: []string{"event exposure unsubscription", "event unsubscriptions at the AMF"},
		Message:   "Namf_EventExposure_Unsubscribe", Spec: "section 5.3 of 3GPP TS 29.518"},
	{NF: "amf", Service: "ee", Slug: "event_notify", Phrase: "event exposure notification",
		Questions: []string{"event exposure notification", "event notifications from the AMF"},
		Message:   "Namf_EventExposure_Notify", Spec: "section 5.3 of 3GPP TS 29.518"},
	{NF: "amf", Service: "ee", Slug: "n1n2_transfer", Phrase: "N1N2 message transfer",
		Questions: []string{"N1N2 message transfer", "N1N2 transfers"},
		Message:   "Namf_Communication_N1N2MessageTransfer", Spec: "section 5.2 of 3GPP TS 29.518"},

	// ---- SMF session management (sm) -----------------------------------
	{NF: "smf", Service: "sm", Slug: "pdu_session_establishment", Phrase: "PDU session establishment",
		Questions: []string{"PDU session establishment", "PDU session establishments", "PDU session setup"},
		Message:   "PDU SESSION ESTABLISHMENT REQUEST", Spec: "section 8.3.1 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "pdu_session_modification", Phrase: "PDU session modification",
		Questions: []string{"PDU session modification", "PDU session modifications"},
		Message:   "PDU SESSION MODIFICATION REQUEST", Spec: "section 8.3.7 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "pdu_session_release", Phrase: "PDU session release",
		Questions: []string{"PDU session release", "PDU session releases", "PDU session teardown"},
		Message:   "PDU SESSION RELEASE REQUEST", Spec: "section 8.3.12 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "sm_ctx_create", Phrase: "SM context creation",
		Questions: []string{"SM context creation", "SM context create", "session management context creation"},
		Message:   "Nsmf_PDUSession_CreateSMContext", Spec: "section 5.2.2.2 of 3GPP TS 29.502"},
	{NF: "smf", Service: "sm", Slug: "sm_ctx_update", Phrase: "SM context update",
		Questions: []string{"SM context update", "session management context update"},
		Message:   "Nsmf_PDUSession_UpdateSMContext", Spec: "section 5.2.2.3 of 3GPP TS 29.502"},
	{NF: "smf", Service: "sm", Slug: "sm_ctx_release", Phrase: "SM context release",
		Questions: []string{"SM context release", "session management context release"},
		Message:   "Nsmf_PDUSession_ReleaseSMContext", Spec: "section 5.2.2.4 of 3GPP TS 29.502"},
	{NF: "smf", Service: "sm", Slug: "ip_alloc", Phrase: "UE IP address allocation",
		Questions: []string{"IP address allocation", "UE IP allocation", "IP address assignments"},
		Message:   "PDU SESSION ESTABLISHMENT ACCEPT", Spec: "section 8.3.2 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "qos_flow_create", Phrase: "QoS flow creation",
		Questions: []string{"QoS flow creation", "QoS flow creations", "new QoS flows"},
		Message:   "PDU SESSION MODIFICATION COMMAND", Spec: "section 8.3.9 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "qos_flow_modify", Phrase: "QoS flow modification",
		Questions: []string{"QoS flow modification", "QoS flow modifications"},
		Message:   "PDU SESSION MODIFICATION COMMAND", Spec: "section 8.3.9 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "qos_flow_release", Phrase: "QoS flow release",
		Questions: []string{"QoS flow release", "QoS flow releases"},
		Message:   "PDU SESSION MODIFICATION COMMAND", Spec: "section 8.3.9 of 3GPP TS 24.501"},
	{NF: "smf", Service: "sm", Slug: "ebi_assignment", Phrase: "EPS bearer ID assignment",
		Questions: []string{"EBI assignment", "EPS bearer ID assignment"},
		Message:   "Namf_Communication_EBIAssignment", Spec: "section 5.2 of 3GPP TS 29.518"},
	{NF: "smf", Service: "sm", Slug: "upf_selection", Phrase: "UPF selection",
		Questions: []string{"UPF selection", "UPF selections", "user plane function selection"},
		Message:   "N4 SESSION ESTABLISHMENT REQUEST", Spec: "section 7.5.2 of 3GPP TS 29.244"},

	// ---- SMF N4/PFCP (n4) -----------------------------------------------
	{NF: "smf", Service: "n4", Slug: "session_establishment", Phrase: "N4 session establishment",
		Questions: []string{"N4 session establishment", "N4 session establishments", "PFCP session establishment"},
		Message:   "PFCP SESSION ESTABLISHMENT REQUEST", Spec: "section 7.5.2 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "session_modification", Phrase: "N4 session modification",
		Questions: []string{"N4 session modification", "PFCP session modification"},
		Message:   "PFCP SESSION MODIFICATION REQUEST", Spec: "section 7.5.4 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "session_deletion", Phrase: "N4 session deletion",
		Questions: []string{"N4 session deletion", "PFCP session deletion"},
		Message:   "PFCP SESSION DELETION REQUEST", Spec: "section 7.5.6 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "association_setup", Phrase: "N4 association setup",
		Questions: []string{"N4 association setup", "PFCP association setup"},
		Message:   "PFCP ASSOCIATION SETUP REQUEST", Spec: "section 7.4.4 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "association_release", Phrase: "N4 association release",
		Questions: []string{"N4 association release", "PFCP association release"},
		Message:   "PFCP ASSOCIATION RELEASE REQUEST", Spec: "section 7.4.4 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "heartbeat", Phrase: "N4 heartbeat",
		Questions: []string{"N4 heartbeat", "PFCP heartbeat", "heartbeat towards the UPF"},
		Message:   "PFCP HEARTBEAT REQUEST", Spec: "section 7.4.2 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "node_report", Phrase: "N4 node report",
		Questions: []string{"N4 node report", "PFCP node report"},
		Message:   "PFCP NODE REPORT REQUEST", Spec: "section 7.4.5 of 3GPP TS 29.244"},
	{NF: "smf", Service: "n4", Slug: "session_report", Phrase: "N4 session report",
		Questions: []string{"N4 session report", "PFCP session report", "usage report from the UPF"},
		Message:   "PFCP SESSION REPORT REQUEST", Spec: "section 7.5.8 of 3GPP TS 29.244"},

	// ---- SMF charging/policy (ch) ---------------------------------------
	{NF: "smf", Service: "ch", Slug: "charging_data_initial", Phrase: "initial charging data request",
		Questions: []string{"initial charging data request", "charging session start"},
		Message:   "Nchf_ConvergedCharging_Create", Spec: "section 5.3 of 3GPP TS 32.291"},
	{NF: "smf", Service: "ch", Slug: "charging_data_update", Phrase: "charging data update",
		Questions: []string{"charging data update", "charging updates"},
		Message:   "Nchf_ConvergedCharging_Update", Spec: "section 5.3 of 3GPP TS 32.291"},
	{NF: "smf", Service: "ch", Slug: "charging_data_final", Phrase: "final charging data request",
		Questions: []string{"final charging data request", "charging session termination"},
		Message:   "Nchf_ConvergedCharging_Release", Spec: "section 5.3 of 3GPP TS 32.291"},
	{NF: "smf", Service: "ch", Slug: "policy_assoc_establishment", Phrase: "SM policy association establishment",
		Questions: []string{"policy association establishment", "SM policy association"},
		Message:   "Npcf_SMPolicyControl_Create", Spec: "section 5.6 of 3GPP TS 29.512"},
	{NF: "smf", Service: "ch", Slug: "policy_assoc_modification", Phrase: "SM policy association modification",
		Questions: []string{"policy association modification", "SM policy update"},
		Message:   "Npcf_SMPolicyControl_Update", Spec: "section 5.6 of 3GPP TS 29.512"},
	{NF: "smf", Service: "ch", Slug: "policy_assoc_termination", Phrase: "SM policy association termination",
		Questions: []string{"policy association termination", "SM policy termination"},
		Message:   "Npcf_SMPolicyControl_Delete", Spec: "section 5.6 of 3GPP TS 29.512"},

	// ---- NRF management (nfm) -------------------------------------------
	{NF: "nrf", Service: "nfm", Slug: "nf_register", Phrase: "NF registration",
		Questions: []string{"NF registration", "network function registration", "NF registrations at the NRF"},
		Message:   "Nnrf_NFManagement_NFRegister", Spec: "section 5.2.2.2 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "nfm", Slug: "nf_update", Phrase: "NF profile update",
		Questions: []string{"NF profile update", "NF update", "network function profile update"},
		Message:   "Nnrf_NFManagement_NFUpdate", Spec: "section 5.2.2.3 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "nfm", Slug: "nf_deregister", Phrase: "NF deregistration",
		Questions: []string{"NF deregistration", "network function deregistration"},
		Message:   "Nnrf_NFManagement_NFDeregister", Spec: "section 5.2.2.4 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "nfm", Slug: "nf_heartbeat", Phrase: "NF heartbeat",
		Questions: []string{"NF heartbeat", "network function heartbeat", "NRF heartbeat"},
		Message:   "Nnrf_NFManagement_NFUpdate (heartbeat)", Spec: "section 5.2.2.3.2 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "nfm", Slug: "nf_status_subscribe", Phrase: "NF status subscription",
		Questions: []string{"NF status subscription", "status subscriptions at the NRF"},
		Message:   "Nnrf_NFManagement_NFStatusSubscribe", Spec: "section 5.2.2.5 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "nfm", Slug: "nf_status_unsubscribe", Phrase: "NF status unsubscription",
		Questions: []string{"NF status unsubscription", "status unsubscriptions at the NRF"},
		Message:   "Nnrf_NFManagement_NFStatusUnsubscribe", Spec: "section 5.2.2.6 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "nfm", Slug: "nf_status_notify", Phrase: "NF status notification",
		Questions: []string{"NF status notification", "status notifications from the NRF"},
		Message:   "Nnrf_NFManagement_NFStatusNotify", Spec: "section 5.2.2.7 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "disc", Slug: "nf_discovery", Phrase: "NF discovery",
		Questions: []string{"NF discovery", "network function discovery", "NF discoveries"},
		Message:   "Nnrf_NFDiscovery_Request", Spec: "section 5.3.2.2 of 3GPP TS 29.510"},
	{NF: "nrf", Service: "disc", Slug: "access_token", Phrase: "OAuth2 access token request",
		Questions: []string{"access token request", "OAuth token request", "OAuth2 access tokens"},
		Message:   "Nnrf_AccessToken_Get", Spec: "section 5.4.2.2 of 3GPP TS 29.510"},

	// ---- NSSF selection (sel) --------------------------------------------
	{NF: "nssf", Service: "sel", Slug: "slice_selection", Phrase: "network slice selection",
		Questions: []string{"network slice selection", "slice selection", "slice selections"},
		Message:   "Nnssf_NSSelection_Get", Spec: "section 5.2.2 of 3GPP TS 29.531"},
	{NF: "nssf", Service: "sel", Slug: "nssai_availability_update", Phrase: "NSSAI availability update",
		Questions: []string{"NSSAI availability update", "slice availability update"},
		Message:   "Nnssf_NSSAIAvailability_Update", Spec: "section 5.3.2 of 3GPP TS 29.531"},
	{NF: "nssf", Service: "sel", Slug: "nssai_availability_subscribe", Phrase: "NSSAI availability subscription",
		Questions: []string{"NSSAI availability subscription", "slice availability subscription"},
		Message:   "Nnssf_NSSAIAvailability_Subscribe", Spec: "section 5.3.2 of 3GPP TS 29.531"},
	{NF: "nssf", Service: "sel", Slug: "nssai_availability_unsubscribe", Phrase: "NSSAI availability unsubscription",
		Questions: []string{"NSSAI availability unsubscription", "slice availability unsubscription"},
		Message:   "Nnssf_NSSAIAvailability_Unsubscribe", Spec: "section 5.3.2 of 3GPP TS 29.531"},
	{NF: "nssf", Service: "sel", Slug: "nssai_availability_notify", Phrase: "NSSAI availability notification",
		Questions: []string{"NSSAI availability notification", "slice availability notification"},
		Message:   "Nnssf_NSSAIAvailability_Notify", Spec: "section 5.3.2 of 3GPP TS 29.531"},

	// ---- N3IWF (ike / ipsec) ----------------------------------------------
	{NF: "n3iwf", Service: "ike", Slug: "sa_init", Phrase: "IKE security association initiation",
		Questions: []string{"IKE SA init", "IKE SA initiation", "IKE security association initiation"},
		Message:   "IKE_SA_INIT", Spec: "section 1.2 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ike", Slug: "ike_auth", Phrase: "IKE authentication",
		Questions: []string{"IKE authentication", "IKE auth", "IKE_AUTH exchange"},
		Message:   "IKE_AUTH", Spec: "section 1.3 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ike", Slug: "child_sa_create", Phrase: "child security association creation",
		Questions: []string{"child SA creation", "child security association creation"},
		Message:   "CREATE_CHILD_SA", Spec: "section 1.3 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ike", Slug: "child_sa_delete", Phrase: "child security association deletion",
		Questions: []string{"child SA deletion", "child security association deletion"},
		Message:   "INFORMATIONAL (DELETE)", Spec: "section 1.4 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ike", Slug: "eap_5g_auth", Phrase: "EAP-5G authentication",
		Questions: []string{"EAP-5G authentication", "EAP 5G session", "EAP-5G"},
		Message:   "EAP-Request/5G-Start", Spec: "section 7.2A of 3GPP TS 24.502"},
	{NF: "n3iwf", Service: "ike", Slug: "dpd", Phrase: "dead peer detection",
		Questions: []string{"dead peer detection", "DPD", "IKE keepalive"},
		Message:   "INFORMATIONAL", Spec: "section 1.4 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ipsec", Slug: "tunnel_establishment", Phrase: "IPsec tunnel establishment",
		Questions: []string{"IPsec tunnel establishment", "IPsec tunnel setup"},
		Message:   "CREATE_CHILD_SA", Spec: "section 1.3 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ipsec", Slug: "tunnel_release", Phrase: "IPsec tunnel release",
		Questions: []string{"IPsec tunnel release", "IPsec tunnel teardown"},
		Message:   "INFORMATIONAL (DELETE)", Spec: "section 1.4 of IETF RFC 7296"},
	{NF: "n3iwf", Service: "ipsec", Slug: "untrusted_registration", Phrase: "registration over untrusted non-3GPP access",
		Questions: []string{"registration over untrusted access", "untrusted non-3GPP registration", "non-3GPP registration"},
		Message:   "REGISTRATION REQUEST (via NWu)", Spec: "section 7.2 of 3GPP TS 24.502"},
	{NF: "n3iwf", Service: "ipsec", Slug: "untrusted_pdu_session", Phrase: "PDU session over untrusted non-3GPP access",
		Questions: []string{"PDU session over untrusted access", "non-3GPP PDU session"},
		Message:   "PDU SESSION ESTABLISHMENT REQUEST (via NWu)", Spec: "section 7.5 of 3GPP TS 24.502"},

	// ---- UPF (sess / gtp) ---------------------------------------------------
	{NF: "upf", Service: "sess", Slug: "session_establishment", Phrase: "PFCP session establishment",
		Questions: []string{"UPF session establishment", "PFCP session establishment at the UPF"},
		Message:   "PFCP SESSION ESTABLISHMENT REQUEST", Spec: "section 7.5.2 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "session_modification", Phrase: "PFCP session modification",
		Questions: []string{"UPF session modification", "PFCP session modification at the UPF"},
		Message:   "PFCP SESSION MODIFICATION REQUEST", Spec: "section 7.5.4 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "session_deletion", Phrase: "PFCP session deletion",
		Questions: []string{"UPF session deletion", "PFCP session deletion at the UPF"},
		Message:   "PFCP SESSION DELETION REQUEST", Spec: "section 7.5.6 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "pdr_install", Phrase: "packet detection rule installation",
		Questions: []string{"PDR installation", "packet detection rule installation"},
		Message:   "PFCP SESSION ESTABLISHMENT REQUEST (Create PDR)", Spec: "section 7.5.2.2 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "far_install", Phrase: "forwarding action rule installation",
		Questions: []string{"FAR installation", "forwarding action rule installation"},
		Message:   "PFCP SESSION ESTABLISHMENT REQUEST (Create FAR)", Spec: "section 7.5.2.3 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "qer_install", Phrase: "QoS enforcement rule installation",
		Questions: []string{"QER installation", "QoS enforcement rule installation"},
		Message:   "PFCP SESSION ESTABLISHMENT REQUEST (Create QER)", Spec: "section 7.5.2.5 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "urr_report", Phrase: "usage reporting rule report",
		Questions: []string{"URR report", "usage report", "usage reporting"},
		Message:   "PFCP SESSION REPORT REQUEST", Spec: "section 7.5.8 of 3GPP TS 29.244"},
	{NF: "upf", Service: "sess", Slug: "dl_data_notification", Phrase: "downlink data notification",
		Questions: []string{"downlink data notification", "DL data notification"},
		Message:   "PFCP SESSION REPORT REQUEST (DLDR)", Spec: "section 7.5.8.2 of 3GPP TS 29.244"},
	{NF: "upf", Service: "gtp", Slug: "tunnel_create", Phrase: "GTP-U tunnel creation",
		Questions: []string{"GTP-U tunnel creation", "GTP tunnel creation", "tunnel creations at the UPF"},
		Message:   "GTP-U G-PDU", Spec: "section 7.3 of 3GPP TS 29.281"},
	{NF: "upf", Service: "gtp", Slug: "tunnel_delete", Phrase: "GTP-U tunnel deletion",
		Questions: []string{"GTP-U tunnel deletion", "GTP tunnel deletion", "tunnel deletions at the UPF"},
		Message:   "GTP-U G-PDU", Spec: "section 7.3 of 3GPP TS 29.281"},
	{NF: "upf", Service: "gtp", Slug: "echo", Phrase: "GTP-U echo",
		Questions: []string{"GTP-U echo", "GTP echo", "GTP-U path management echo"},
		Message:   "GTP-U ECHO REQUEST", Spec: "section 7.2.1 of 3GPP TS 29.281"},
	{NF: "upf", Service: "gtp", Slug: "error_indication", Phrase: "GTP-U error indication",
		Questions: []string{"GTP-U error indication", "GTP error indications"},
		Message:   "GTP-U ERROR INDICATION", Spec: "section 7.3.1 of 3GPP TS 29.281"},
}

// Procedures returns the procedure table (shared slice; callers must not
// modify it).
func Procedures() []ProcedureDef { return procedures }

// GaugeDef describes a point-in-time level metric.
type GaugeDef struct {
	NF, Service, Slug string
	// Phrase is the documented quantity ("active PDU sessions").
	Phrase string
	// Questions are operator phrasings.
	Questions []string
	Unit      string
}

// MetricName returns the gauge's metric name.
func (g GaugeDef) MetricName() string { return g.NF + g.Service + "_" + g.Slug }

var gauges = []GaugeDef{
	{NF: "amf", Service: "cc", Slug: "registered_ues", Phrase: "currently registered UEs",
		Questions: []string{"registered UEs", "registered subscribers", "how many UEs are registered"}},
	{NF: "amf", Service: "cc", Slug: "connected_ues", Phrase: "UEs in CM-CONNECTED state",
		Questions: []string{"connected UEs", "UEs in connected state"}},
	{NF: "amf", Service: "cc", Slug: "idle_ues", Phrase: "UEs in CM-IDLE state",
		Questions: []string{"idle UEs", "UEs in idle state"}},
	{NF: "amf", Service: "mm", Slug: "connected_gnbs", Phrase: "gNodeBs with an active NG connection",
		Questions: []string{"connected gNodeBs", "connected gNBs", "base stations connected"}},
	{NF: "amf", Service: "mm", Slug: "active_paging", Phrase: "paging procedures in progress",
		Questions: []string{"active paging procedures", "ongoing paging"}},
	{NF: "amf", Service: "cc", Slug: "ue_contexts", Phrase: "stored UE contexts",
		Questions: []string{"UE contexts", "stored UE contexts"}},
	{NF: "amf", Service: "ee", Slug: "active_subscriptions", Phrase: "active event exposure subscriptions",
		Questions: []string{"active event subscriptions", "event exposure subscriptions"}},
	{NF: "smf", Service: "sm", Slug: "pdu_sessions_active", Phrase: "currently active PDU sessions",
		Questions: []string{"active PDU sessions", "PDU sessions", "how many PDU sessions are active"}},
	{NF: "smf", Service: "sm", Slug: "ipv4_allocated", Phrase: "allocated IPv4 addresses",
		Questions: []string{"allocated IPv4 addresses", "IPv4 addresses in use"}},
	{NF: "smf", Service: "sm", Slug: "ipv6_allocated", Phrase: "allocated IPv6 prefixes",
		Questions: []string{"allocated IPv6 prefixes", "IPv6 prefixes in use"}},
	{NF: "smf", Service: "sm", Slug: "qos_flows_active", Phrase: "active QoS flows",
		Questions: []string{"active QoS flows", "QoS flows"}},
	{NF: "smf", Service: "sm", Slug: "sm_contexts", Phrase: "stored SM contexts",
		Questions: []string{"SM contexts", "session management contexts"}},
	{NF: "smf", Service: "n4", Slug: "associations_active", Phrase: "active N4 associations",
		Questions: []string{"active N4 associations", "PFCP associations"}},
	{NF: "nrf", Service: "nfm", Slug: "registered_nfs", Phrase: "registered NF instances",
		Questions: []string{"registered NF instances", "registered network functions"}},
	{NF: "nrf", Service: "nfm", Slug: "active_subscriptions", Phrase: "active status subscriptions",
		Questions: []string{"active NRF subscriptions", "status subscriptions"}},
	{NF: "nssf", Service: "sel", Slug: "configured_slices", Phrase: "configured network slices",
		Questions: []string{"configured slices", "configured network slices"}},
	{NF: "nssf", Service: "sel", Slug: "available_slices", Phrase: "currently available network slices",
		Questions: []string{"available slices", "available network slices"}},
	{NF: "n3iwf", Service: "ike", Slug: "active_ike_sas", Phrase: "established IKE security associations",
		Questions: []string{"active IKE SAs", "established IKE security associations"}},
	{NF: "n3iwf", Service: "ipsec", Slug: "active_tunnels", Phrase: "established IPsec tunnels",
		Questions: []string{"active IPsec tunnels", "established IPsec tunnels"}},
	{NF: "n3iwf", Service: "ipsec", Slug: "connected_ues", Phrase: "UEs connected over untrusted non-3GPP access",
		Questions: []string{"UEs on untrusted access", "non-3GPP connected UEs"}},
	{NF: "upf", Service: "sess", Slug: "sessions_active", Phrase: "active PFCP sessions",
		Questions: []string{"active UPF sessions", "active PFCP sessions"}},
	{NF: "upf", Service: "gtp", Slug: "tunnels_active", Phrase: "active GTP-U tunnels",
		Questions: []string{"active GTP-U tunnels", "active GTP tunnels"}},
	{NF: "upf", Service: "sess", Slug: "buffered_packets", Phrase: "packets currently buffered for paging",
		Questions: []string{"buffered packets", "packets buffered at the UPF"}},
	{NF: "upf", Service: "sess", Slug: "installed_pdrs", Phrase: "installed packet detection rules",
		Questions: []string{"installed PDRs", "packet detection rules installed"}},
	{NF: "upf", Service: "sess", Slug: "installed_fars", Phrase: "installed forwarding action rules",
		Questions: []string{"installed FARs", "forwarding action rules installed"}},
	{NF: "upf", Service: "sess", Slug: "installed_qers", Phrase: "installed QoS enforcement rules",
		Questions: []string{"installed QERs", "QoS enforcement rules installed"}},
}

// Gauges returns the gauge table.
func Gauges() []GaugeDef { return gauges }

// messagesCompact expands to the message table: per NF/service/spec, a list
// of message slugs (phrase derived by replacing underscores).
var messagesCompact = []struct {
	nf, service, spec string
	slugs             []string
}{
	{"amf", "n1", "3GPP TS 24.501", []string{
		"registration_request", "registration_accept", "registration_complete",
		"registration_reject", "deregistration_request", "deregistration_accept",
		"service_request", "service_accept", "service_reject",
		"authentication_request", "authentication_response", "authentication_reject",
		"authentication_failure", "security_mode_command", "security_mode_complete",
		"security_mode_reject", "identity_request", "identity_response",
		"configuration_update_command", "configuration_update_complete",
		"ul_nas_transport", "dl_nas_transport", "gmm_status", "notification",
		"notification_response",
	}},
	{"amf", "n2", "3GPP TS 38.413", []string{
		"ng_setup_request", "ng_setup_response", "ng_setup_failure",
		"initial_ue_message", "downlink_nas_transport", "uplink_nas_transport",
		"initial_context_setup_request", "initial_context_setup_response",
		"initial_context_setup_failure", "ue_context_release_request",
		"ue_context_release_command", "ue_context_release_complete",
		"handover_required", "handover_request", "handover_request_ack",
		"handover_command", "handover_notify", "handover_failure",
		"path_switch_request", "path_switch_request_ack", "paging",
		"pdu_session_resource_setup_request", "pdu_session_resource_setup_response",
		"pdu_session_resource_release_command", "pdu_session_resource_release_response",
		"error_indication",
	}},
	{"smf", "sbi", "3GPP TS 29.502", []string{
		"create_sm_context_request", "create_sm_context_response",
		"update_sm_context_request", "update_sm_context_response",
		"release_sm_context_request", "release_sm_context_response",
		"sm_context_status_notify", "retrieve_sm_context_request",
		"notify_status_request", "notify_status_response",
	}},
	{"smf", "n4", "3GPP TS 29.244", []string{
		"session_establishment_request", "session_establishment_response",
		"session_modification_request", "session_modification_response",
		"session_deletion_request", "session_deletion_response",
		"session_report_request", "session_report_response",
		"association_setup_request", "association_setup_response",
		"heartbeat_request", "heartbeat_response",
	}},
	{"nrf", "sbi", "3GPP TS 29.510", []string{
		"nf_register_request", "nf_register_response", "nf_update_request",
		"nf_update_response", "nf_deregister_request", "nf_deregister_response",
		"nf_discovery_request", "nf_discovery_response",
		"status_subscribe_request", "status_notify_request",
		"access_token_request", "access_token_response",
	}},
	{"nssf", "sbi", "3GPP TS 29.531", []string{
		"ns_selection_get_request", "ns_selection_get_response",
		"nssai_availability_put_request", "nssai_availability_put_response",
		"nssai_availability_notify",
	}},
	{"n3iwf", "ike", "IETF RFC 7296", []string{
		"ike_sa_init_request", "ike_sa_init_response", "ike_auth_request",
		"ike_auth_response", "create_child_sa_request", "create_child_sa_response",
		"informational_request", "informational_response",
		"eap_5g_start", "eap_5g_nas", "eap_5g_stop",
	}},
	{"upf", "n4", "3GPP TS 29.244", []string{
		"session_establishment_request", "session_establishment_response",
		"session_modification_request", "session_modification_response",
		"session_deletion_request", "session_deletion_response",
		"session_report_request", "session_report_response",
		"heartbeat_request", "heartbeat_response",
	}},
	{"upf", "gtpu", "3GPP TS 29.281", []string{
		"g_pdu", "echo_request", "echo_response", "error_indication",
		"end_marker",
	}},
}

// ResourceDef describes a per-NF platform resource metric.
type ResourceDef struct {
	Slug, Phrase, Unit string
	Type               MetricType
}

// resources is exported once per NF.
var resources = []ResourceDef{
	{Slug: "cpu_usage_percent", Phrase: "CPU utilisation of the NF workload", Unit: "percent", Type: Gauge},
	{Slug: "memory_bytes", Phrase: "resident memory of the NF workload", Unit: "bytes", Type: Gauge},
	{Slug: "heap_bytes", Phrase: "heap memory in use", Unit: "bytes", Type: Gauge},
	{Slug: "goroutines", Phrase: "concurrent execution contexts", Unit: "", Type: Gauge},
	{Slug: "open_fds", Phrase: "open file descriptors", Unit: "", Type: Gauge},
	{Slug: "uptime_seconds", Phrase: "seconds since the NF process started", Unit: "seconds", Type: Counter},
	{Slug: "restarts", Phrase: "times the NF workload restarted", Unit: "", Type: Counter},
	{Slug: "sbi_inflight_requests", Phrase: "in-flight service-based-interface requests", Unit: "", Type: Gauge},
	{Slug: "sbi_request_errors", Phrase: "failed service-based-interface requests", Unit: "", Type: Counter},
	{Slug: "db_connections", Phrase: "open connections to the state database", Unit: "", Type: Gauge},
	{Slug: "queue_depth", Phrase: "pending items in the internal work queue", Unit: "", Type: Gauge},
	{Slug: "dropped_events", Phrase: "internal events dropped under overload", Unit: "", Type: Counter},
	{Slug: "log_errors", Phrase: "error-level log records emitted", Unit: "", Type: Counter},
	{Slug: "config_reloads", Phrase: "configuration reloads applied", Unit: "", Type: Counter},
}

var trafficInterfaces = []string{"n3", "n6", "n9"}
var trafficDirections = []string{"ul", "dl"}
var trafficKinds = []struct{ kind, unit, phrase string }{
	{"bytes", "bytes", "bytes forwarded"},
	{"packets", "packets", "packets forwarded"},
	{"dropped_packets", "packets", "packets dropped"},
	{"errored_packets", "packets", "packets with processing errors"},
	{"out_of_order_packets", "packets", "packets received out of order"},
}
